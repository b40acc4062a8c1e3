package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/ssta"
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

// FuzzModelPut: any key and body on PUT /cluster/models/{key} gets a 204
// or a 4xx, never a 5xx, a panic or a hang. A 204 means the pushed model
// was extracted from the keyed graph (its source digest is the graph's),
// so a model of another graph is refused even when its ports match: the
// corpus pushes c432 seed 1's model as seed 7 and as clocked c432. A 204
// leaves Lookup on the keyed graph answering a model with that graph's
// ports, and a push that seeded the cache installed the pushed model
// itself under that graph.
func FuzzModelPut(f *testing.F) {
	s := New(Config{MaxConcurrent: 2, DefaultTimeout: time.Second, MaxTimeout: time.Second})
	hs := httptest.NewServer(s.WorkerService())
	f.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	flow := ssta.DefaultFlow()
	snapshot := func(g *ssta.Graph, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		m, err := flow.Extract(g, ssta.ExtractOptions{})
		if err != nil {
			f.Fatal(err)
		}
		data, err := m.EncodeSnapshot()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	g, _, err := flow.BenchGraph("c432", 1)
	c432 := snapshot(g, err)
	mult2, err := ssta.ArrayMultiplier(2)
	if err != nil {
		f.Fatal(err)
	}
	g, _, err = flow.Graph(mult2)
	m2 := snapshot(g, err)
	f.Add("bench-c432-s1.snap", c432)
	// Same ports, other graphs: both must be refused.
	f.Add("bench-c432-s7.snap", c432)
	f.Add("bench-c432-s1-clk.snap", c432)
	f.Add("bench-c880-s1.snap", c432)
	f.Add("bench-c432-s1.snap", c432[:len(c432)/2])
	f.Add("bench-c432-s1.snap", []byte("{}"))
	f.Add("mult-64.snap", c432)
	f.Add("mult-2.snap", m2)
	f.Add("mult-3.snap", m2)
	f.Add("nonsense", m2)
	f.Add("", []byte{})

	client := &http.Client{Timeout: 30 * time.Second}
	f.Fuzz(func(t *testing.T, key string, body []byte) {
		req, err := http.NewRequest(http.MethodPut, hs.URL+"/cluster/models/"+url.PathEscape(key), bytes.NewReader(body))
		if err != nil {
			t.Skip("not a request URL")
		}
		seeded := s.remoteCache.hits.Load()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("PUT %q: %v", key, err)
		}
		answer, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNoContent:
		case resp.StatusCode/100 == 4:
			return
		default:
			t.Fatalf("PUT %q: status %d: %s", key, resp.StatusCode, answer)
		}
		gk, ok := parseModelKey(modelKeyPrefix + key)
		if !ok {
			t.Fatalf("PUT %q: 204 for a key that does not parse", key)
		}
		g, err := s.cachedGraph(context.Background(), gk)
		if err != nil {
			t.Fatalf("PUT %q: 204 for a graph that does not build: %v", key, err)
		}
		pushed, err := ssta.DecodeModelSnapshot(body)
		if err != nil {
			t.Fatalf("PUT %q: 204 for a body that does not decode: %v", key, err)
		}
		if pushed.Source != g.Digest() {
			t.Fatalf("PUT %q: 204 for a model extracted from another graph", key)
		}
		m, ok := s.flow.Cache.Lookup(g, ssta.ExtractOptions{})
		if !ok {
			t.Fatalf("PUT %q: 204 but the keyed graph has no model", key)
		}
		if len(m.Graph.Inputs) != len(g.Inputs) || len(m.Graph.Outputs) != len(g.Outputs) {
			t.Fatalf("PUT %q: cached model has %d/%d ports, graph %d/%d", key,
				len(m.Graph.Inputs), len(m.Graph.Outputs), len(g.Inputs), len(g.Outputs))
		}
		if s.remoteCache.hits.Load() == seeded {
			return // the graph already had a model; Seed kept it
		}
		want, _ := pushed.EncodeSnapshot()
		got, _ := m.EncodeSnapshot()
		if !bytes.Equal(got, want) {
			t.Fatalf("PUT %q: the keyed graph's model is not the pushed one", key)
		}
	})
}
