package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzServers boots an unbatched and a batched server with short deadlines,
// so every fuzzed request is bounded in time however much work it names.
func fuzzServers(f *testing.F) []*httptest.Server {
	var out []*httptest.Server
	for _, window := range []time.Duration{0, time.Millisecond} {
		s := New(Config{
			MaxConcurrent:  2,
			DefaultTimeout: time.Second,
			MaxTimeout:     time.Second,
			MaxItems:       8,
			BatchWindow:    window,
		})
		hs := httptest.NewServer(s.Handler())
		f.Cleanup(func() {
			hs.Close()
			s.Close()
		})
		out = append(out, hs)
	}
	return out
}

// postBody sends body to path on every server and requires an answer that
// is a 2xx carrying JSON that decodes, or a 4xx, within the client timeout:
// never a 5xx, an empty 2xx, a dropped connection (a handler panic) or a
// hang. It returns each server's status and body.
func postBody(t *testing.T, servers []*httptest.Server, path string, body []byte) (status []int, data [][]byte) {
	client := &http.Client{Timeout: 30 * time.Second}
	for _, hs := range servers {
		resp, err := client.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %q: %v", path, body, err)
		}
		answer, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %s %q: reading the answer: %v", path, body, err)
		}
		switch resp.StatusCode / 100 {
		case 2:
			var v any
			if err := json.Unmarshal(answer, &v); err != nil {
				t.Fatalf("POST %s %q: status %d with a body that does not decode (%v): %q", path, body, resp.StatusCode, err, answer)
			}
		case 4:
		default:
			t.Fatalf("POST %s %q: status %d: %s", path, body, resp.StatusCode, answer)
		}
		status, data = append(status, resp.StatusCode), append(data, answer)
	}
	return status, data
}

// FuzzAnalyzeBody: any /v1/analyze body, batched or not, gets a 200 or a
// 4xx. The seed corpus lives in testdata/fuzz/FuzzAnalyzeBody.
func FuzzAnalyzeBody(f *testing.F) {
	servers := fuzzServers(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		postBody(t, servers, "/v1/analyze", body)
	})
}

// FuzzSweepBody: any /v1/sweep body, batched or not, gets a 200 or a 4xx.
// The seed corpus lives in testdata/fuzz/FuzzSweepBody.
func FuzzSweepBody(f *testing.F) {
	servers := fuzzServers(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		postBody(t, servers, "/v1/sweep", body)
	})
}

// FuzzSessionCreateBody: any /v1/sessions body gets a 201 or a 4xx; a
// created session is deleted again, so the table never fills. The seed
// corpus lives in testdata/fuzz/FuzzSessionCreateBody.
func FuzzSessionCreateBody(f *testing.F) {
	servers := fuzzServers(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		status, data := postBody(t, servers, "/v1/sessions", body)
		for k, hs := range servers {
			if status[k] != http.StatusCreated {
				continue
			}
			var v SessionView
			if err := json.Unmarshal(data[k], &v); err != nil || v.ID == "" {
				t.Fatalf("POST /v1/sessions %q: 201 without a session id: %s", body, data[k])
			}
			req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/sessions/"+v.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	})
}

// FuzzSessionEditBody: any /v1/sessions/{id}/edits body gets a 200 or a
// 4xx, on a flat and a quad session of each server. The sessions are
// created once per server, so accepted edits carry over from one input to
// the next. The seed corpus lives in testdata/fuzz/FuzzSessionEditBody.
func FuzzSessionEditBody(f *testing.F) {
	type target struct {
		srv  *httptest.Server
		path string
	}
	var targets []target
	for _, hs := range fuzzServers(f) {
		for _, item := range []string{
			`{"bench":"c432","seed":1}`,
			`{"quad":{"bench":"c432","seed":1},"mode":"full"}`,
		} {
			resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader(item))
			if err != nil {
				f.Fatal(err)
			}
			var v SessionView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				f.Fatalf("create session %s: status %d, %v", item, resp.StatusCode, err)
			}
			targets = append(targets, target{hs, "/v1/sessions/" + v.ID + "/edits"})
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, tg := range targets {
			postBody(t, []*httptest.Server{tg.srv}, tg.path, body)
		}
	})
}
