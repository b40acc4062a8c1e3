package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/ssta"
)

// createWithHeader posts a session create carrying a claimed id.
func createWithHeader(t *testing.T, base, claim string) SessionView {
	t.Helper()
	body, _ := json.Marshal(SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/sessions", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if claim != "" {
		req.Header.Set(sessionIDHeader, claim)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var v SessionView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSessionIDClaimTrustBoundary: only the coordinator-facing listener
// (WorkerService) honours a claimed session id. On the public API the
// header is ignored, so a client cannot pick ids; and even a trusted claim
// of a huge id cannot push the sequence to where it overflows.
func TestSessionIDClaimTrustBoundary(t *testing.T) {
	s, pub := newTestServer(t, Config{})
	worker := httptest.NewServer(s.WorkerService())
	defer worker.Close()

	const huge = "sess-9223372036854775807"
	if v := createWithHeader(t, pub.URL, huge); v.ID != "sess-1" {
		t.Fatalf("public create honoured a claimed id: got %q, want sess-1", v.ID)
	}
	if v := createWithHeader(t, pub.URL, ""); v.ID != "sess-2" {
		t.Fatalf("plain create after a public claim: %q, want sess-2", v.ID)
	}

	// The trusted listener registers the claim verbatim...
	if v := createWithHeader(t, worker.URL, huge); v.ID != huge {
		t.Fatalf("worker create ignored the claimed id: %q", v.ID)
	}
	// ...without moving the sequence to a value add cannot increment.
	for _, want := range []string{"sess-3", "sess-4"} {
		if v := createWithHeader(t, pub.URL, ""); v.ID != want {
			t.Fatalf("plain create after a huge claim: %q, want %s", v.ID, want)
		}
	}
	// An ordinary claim still moves the sequence past itself, so local
	// creates never collide with coordinator-assigned ids.
	if v := createWithHeader(t, worker.URL, "sess-40"); v.ID != "sess-40" {
		t.Fatalf("worker create ignored the claimed id: %q", v.ID)
	}
	if v := createWithHeader(t, worker.URL, ""); v.ID != "sess-41" {
		t.Fatalf("plain create after claiming sess-40: %q, want sess-41", v.ID)
	}
}

// TestMultCapped: {"mult": N} above maxMult is refused with a 400 on every
// endpoint that builds graphs, before the graph cache is consulted.
func TestMultCapped(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	item := ItemSpec{Mult: maxMult + 1}
	cases := []struct {
		path string
		body any
	}{
		{"/v1/analyze", AnalyzeRequest{Items: []ItemSpec{item}}},
		{"/v1/jobs", AnalyzeRequest{Items: []ItemSpec{{Bench: "c432"}, item}}},
		{"/v1/sweep", SweepRequest{ItemSpec: item, Scenarios: testSweepSpecs()}},
		{"/v1/sessions", SessionCreateRequest{ItemSpec: ItemSpec{Mult: 1 << 20}}},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, hs.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("exceeds the limit")) {
			t.Fatalf("%s with an oversized mult: status %d: %s", tc.path, resp.StatusCode, data)
		}
	}
	if v := metricValue(t, hs.URL, "sstad_graph_cache_misses_total"); v != 0 {
		t.Fatalf("sstad_graph_cache_misses_total = %g after refused requests, want 0", v)
	}
}

// putModel sends one model snapshot to a worker's push route.
func putModel(t *testing.T, base, key string, data []byte) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, base+"/cluster/models/"+key, bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestModelPushRoute: PUT /cluster/models/{key} exists only on
// WorkerService, bounds its body, and refuses a bad key, a corrupt or
// oversized snapshot, a model without a source digest, or a model of
// another graph with a 4xx, leaving the extract cache unseeded. That
// includes models whose ports match: c432 seed 1's model keyed as seed 7
// or as clocked c432. A valid push seeds it, once.
func TestModelPushRoute(t *testing.T) {
	flow := ssta.DefaultFlow()
	g, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const key = "bench-c432-s1.snap"
	unsourced := *m
	unsourced.Source = ""
	bare, err := unsourced.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	s, pub := newTestServer(t, Config{MaxBodyBytes: int64(len(snap))})
	worker := httptest.NewServer(s.WorkerService())
	defer worker.Close()

	refused := []struct {
		name, base, key string
		data            []byte
		want            int
	}{
		{"public listener", pub.URL, key, snap, http.StatusNotFound},
		{"unparsable key", worker.URL, "nonsense", snap, http.StatusBadRequest},
		{"oversized mult key", worker.URL, "mult-64.snap", snap, http.StatusBadRequest},
		{"corrupt snapshot", worker.URL, key, snap[:len(snap)-7], http.StatusBadRequest},
		{"oversized body", worker.URL, key, append(append([]byte(nil), snap...), ' '), http.StatusRequestEntityTooLarge},
		{"foreign model", worker.URL, "bench-c880-s1.snap", snap, http.StatusBadRequest},
		{"model without source digest", worker.URL, key, bare, http.StatusBadRequest},
		{"model of another seed", worker.URL, "bench-c432-s7.snap", snap, http.StatusConflict},
		{"model of the clocked graph", worker.URL, "bench-c432-s1-clk.snap", snap, http.StatusConflict},
	}
	for _, tc := range refused {
		if got := putModel(t, tc.base, tc.key, tc.data); got != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, got, tc.want)
		}
		if n := s.flow.Cache.Len(); n != 0 {
			t.Fatalf("%s: extract cache holds %d models, want 0", tc.name, n)
		}
	}
	if got := s.remoteCache.rejected.Load(); got != int64(len(refused)-1) {
		t.Fatalf("rejected pushes = %d, want %d", got, len(refused)-1)
	}

	for i := 0; i < 2; i++ {
		if got := putModel(t, worker.URL, key, snap); got != http.StatusNoContent {
			t.Fatalf("valid push %d: status %d", i, got)
		}
	}
	if h, m := s.remoteCache.hits.Load(), s.remoteCache.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("pushes: %d hits %d misses, want 1 and 1 (the second found it seeded)", h, m)
	}
	wg, err := s.cachedGraph(context.Background(), graphKey{bench: "c432", seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.flow.Cache.Lookup(wg, ssta.ExtractOptions{}); !ok {
		t.Fatal("valid push did not seed the extract cache")
	}
	// The worker now serves the model without extracting.
	_, misses0 := s.flow.Cache.Stats()
	resp, data := postJSON(t, pub.URL+"/v1/sweep", SweepRequest{
		ItemSpec: ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}}, Scenarios: testSweepSpecs(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quad sweep: %d %s", resp.StatusCode, data)
	}
	if _, misses := s.flow.Cache.Stats(); misses != misses0 {
		t.Fatalf("quad sweep extracted (%d extract misses) despite the pushed model", misses-misses0)
	}
}
