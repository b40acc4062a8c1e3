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
// is a 200 or a 4xx within the client timeout: never a 5xx, a dropped
// connection (a handler panic) or a hang.
func postBody(t *testing.T, servers []*httptest.Server, path string, body []byte) {
	client := &http.Client{Timeout: 30 * time.Second}
	for _, hs := range servers {
		resp, err := client.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %q: %v", path, body, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %s %q: reading the answer: %v", path, body, err)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode/100 != 4 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, resp.StatusCode, data)
		}
	}
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
