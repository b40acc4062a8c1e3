package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ssta"
)

func createSession(t *testing.T, base string, req SessionCreateRequest) SessionView {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/sessions", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", resp.StatusCode, data)
	}
	var v SessionView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("create session: bad body %q: %v", data, err)
	}
	return v
}

func applyEdits(t *testing.T, base, id string, req SessionEditRequest) SessionEditResponse {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/sessions/"+id+"/edits", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edits: status %d: %s", resp.StatusCode, data)
	}
	var out SessionEditResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("edits: bad body %q: %v", data, err)
	}
	return out
}

// TestSessionFlatLifecycle drives a flat session end to end: create,
// edit incrementally, compare against the direct library computation,
// delete.
func TestSessionFlatLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	if v.Kind != "flat" || v.Verts == 0 || v.Edges == 0 {
		t.Fatalf("unexpected session view: %+v", v)
	}

	// Direct reference: same deterministic pipeline, same edits.
	flow := ssta.DefaultFlow()
	g, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flow.NewGraphSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ref.Delay().Mean() - v.MeanPS); d > 1e-9 {
		t.Fatalf("initial mean differs from direct path by %g", d)
	}

	edits := SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 5, Scale: 1.5},
		{Op: "set_nominal", Edge: 9, ValuePS: 120},
		{Op: "remove_edge", Edge: 17},
	}}
	got := applyEdits(t, hs.URL, v.ID, edits)
	rep, err := ref.Apply(context.Background(), []ssta.Edit{
		{Op: ssta.EditScaleDelay, Edge: 5, Scale: 1.5},
		{Op: ssta.EditSetNominal, Edge: 9, Value: 120},
		{Op: ssta.EditRemoveEdge, Edge: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Applied != 3 {
		t.Fatalf("applied %d edits, want 3", got.Applied)
	}
	if d := math.Abs(got.MeanPS - rep.Delay.Mean()); d > 1e-9 {
		t.Fatalf("post-edit mean differs from direct path by %g", d)
	}
	if got.RecomputedVerts == 0 || got.RecomputedVerts >= got.TotalVerts {
		t.Fatalf("recomputed %d of %d vertices — not incremental", got.RecomputedVerts, got.TotalVerts)
	}

	// GET reflects the edits; DELETE makes it 404.
	resp, data := httpGet(t, hs.URL+"/v1/sessions/"+v.ID)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"edits":3`) {
		t.Fatalf("GET session: %d %s", resp.StatusCode, data)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/sessions/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	resp, _ = httpGet(t, hs.URL+"/v1/sessions/"+v.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404", resp.StatusCode)
	}
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSessionIdentityEditsMatchAnalyze checks the smoke-test invariant the
// CI job relies on: a scale-up immediately undone by the inverse scale
// (both powers of two, hence exact) returns the session to the pristine
// benchmark delay, equal to a fresh /v1/analyze of the same item.
func TestSessionIdentityEditsMatchAnalyze(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c499", Seed: 1}})
	got := applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 3, Scale: 2},
		{Op: "scale_delay", Edge: 3, Scale: 0.5},
	}})
	fresh := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{{Bench: "c499", Seed: 1}}})
	if fresh.Results[0].Error != "" {
		t.Fatal(fresh.Results[0].Error)
	}
	if d := math.Abs(got.MeanPS - fresh.Results[0].MeanPS); d > 1e-9 {
		t.Fatalf("identity edit batch drifted from fresh analyze by %g", d)
	}
}

// TestSessionQuadSwap runs the hierarchical ECO over HTTP: swap one
// instance's module to a re-characterized variant and compare against the
// direct library path.
func TestSessionQuadSwap(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	v := createSession(t, hs.URL, SessionCreateRequest{
		ItemSpec: ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
	})
	if v.Kind != "hier" {
		t.Fatalf("kind %q, want hier", v.Kind)
	}
	got := applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "swap_module", Instance: "B", Bench: "c432", Seed: 2},
		{Op: "set_net_delay", Net: 0, ValuePS: 9},
	}})
	if !got.FullReprop {
		t.Fatal("module swap did not report full re-propagation")
	}

	// Direct reference through the same server flow (shared extract cache).
	d, err := s.quadDesign(context.Background(), &QuadSpec{Bench: "c432", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.graph(context.Background(), graphKey{bench: "c432", seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	model2, err := s.flow.ExtractCtx(context.Background(), b2.g, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := ssta.NewModule("c432", model2, b2.plan)
	if err != nil {
		t.Fatal(err)
	}
	mirror := d.CopyStructure()
	mirror.Instances[1].Module = alt
	mirror.Nets[0].Delay = 9
	res, err := mirror.Analyze(ssta.FullCorrelation)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(got.MeanPS - res.Delay.Mean()); diff > 1e-9 {
		t.Fatalf("post-swap session differs from direct Analyze by %g", diff)
	}
}

// TestSessionSwapRefusedUnderEdgeScales: a module swap renumbers a quad
// session's top-graph edges, so while its sweep scales edges by index every
// swap_module is a 400 naming the scenario, refused before any graph build
// or extraction, and the session answers exactly as before.
func TestSessionSwapRefusedUnderEdgeScales(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	v := createSession(t, hs.URL, SessionCreateRequest{
		ItemSpec: ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
		Scenarios: []SweepScenarioSpec{
			{ScenarioSpec: ssta.ScenarioSpec{Name: "unit"}},
			{ScenarioSpec: ssta.ScenarioSpec{Name: "hot-edge", EdgeScales: map[int]float64{289: 3}}},
		},
	})
	_, before := httpGet(t, hs.URL+"/v1/sessions/"+v.ID)
	graphMisses := metricValue(t, hs.URL, "sstad_graph_cache_misses_total")
	extractMisses := metricValue(t, hs.URL, "sstad_extract_cache_misses_total")
	for _, seed := range []int64{3, 5} {
		resp, data := postJSON(t, hs.URL+"/v1/sessions/"+v.ID+"/edits", SessionEditRequest{Edits: []EditSpec{
			{Op: "swap_module", Instance: "B", Bench: "c432", Seed: seed},
		}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "hot-edge") {
			t.Fatalf("swap to seed %d: status %d: %s", seed, resp.StatusCode, data)
		}
	}
	_, after := httpGet(t, hs.URL+"/v1/sessions/"+v.ID)
	var vb, va SessionView
	if err := json.Unmarshal(before, &vb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &va); err != nil {
		t.Fatal(err)
	}
	vb.LastUsedMS, va.LastUsedMS = 0, 0
	bj, _ := json.Marshal(vb)
	aj, _ := json.Marshal(va)
	if string(bj) != string(aj) || va.Sweep == nil {
		t.Fatalf("refused swaps changed the session:\nbefore %s\nafter  %s", bj, aj)
	}
	if g, e := metricValue(t, hs.URL, "sstad_graph_cache_misses_total"), metricValue(t, hs.URL, "sstad_extract_cache_misses_total"); g != graphMisses || e != extractMisses {
		t.Fatalf("refused swaps built graphs (%g -> %g misses) or extracted (%g -> %g)", graphMisses, g, extractMisses, e)
	}
}

// TestSessionEditValidation covers wire-level rejection paths.
func TestSessionEditValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})

	for _, tc := range []struct {
		name string
		req  SessionEditRequest
	}{
		{"no edits", SessionEditRequest{}},
		{"unknown op", SessionEditRequest{Edits: []EditSpec{{Op: "frob"}}}},
		{"bad scale", SessionEditRequest{Edits: []EditSpec{{Op: "scale_delay", Edge: 0, Scale: -1}}}},
		{"net on flat", SessionEditRequest{Edits: []EditSpec{{Op: "set_net_delay", Net: 0, ValuePS: 1}}}},
		{"swap missing bench", SessionEditRequest{Edits: []EditSpec{{Op: "swap_module", Instance: "A"}}}},
	} {
		resp, data := postJSON(t, hs.URL+"/v1/sessions/"+v.ID+"/edits", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
	}
	resp, _ := postJSON(t, hs.URL+"/v1/sessions/nope/edits",
		SessionEditRequest{Edits: []EditSpec{{Op: "scale_delay", Edge: 0, Scale: 2}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}
	// An invalid edit mid-batch reports 400 but the session stays usable,
	// and the body discloses the partially applied prefix so the client
	// knows not to resend the whole batch.
	resp, data := postJSON(t, hs.URL+"/v1/sessions/"+v.ID+"/edits", SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 0, Scale: 2},
		{Op: "remove_edge", Edge: 99999},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(data), "1 of 2 edits were applied") {
		t.Fatalf("partial application not disclosed: %s", data)
	}
	got := applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 0, Scale: 2},
	}})
	if got.Applied != 1 {
		t.Fatalf("session unusable after failed batch: %+v", got)
	}
}

// TestSessionCapAndTTL checks the session table bound and idle eviction.
func TestSessionCapAndTTL(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxSessions: 1, SessionTTL: 150 * time.Millisecond})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	resp, _ := postJSON(t, hs.URL+"/v1/sessions", SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 2}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: status %d, want 429", resp.StatusCode)
	}
	// Wait out the TTL; the janitor ticks at ttl/4.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, _ := httpGet(t, hs.URL+"/v1/sessions/"+v.ID); resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted after TTL")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := s.sessions.len(); n != 0 {
		t.Fatalf("%d sessions after eviction", n)
	}
	_, data := httpGet(t, hs.URL+"/metrics")
	if !strings.Contains(string(data), `sstad_sessions_lifecycle_total{event="evicted"} 1`) {
		t.Fatalf("eviction not counted in metrics:\n%s", data)
	}
}

// TestSessionsConcurrentHTTP hammers distinct sessions and one shared
// session from parallel clients (run under -race in CI).
func TestSessionsConcurrentHTTP(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 4})
	shared := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: int64(10 + w)}}
			resp, data := postJSON(t, hs.URL+"/v1/sessions", own)
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("worker %d create: %d %s", w, resp.StatusCode, data)
				return
			}
			var v SessionView
			if err := json.Unmarshal(data, &v); err != nil {
				errs <- err
				return
			}
			for k := 0; k < 3; k++ {
				for _, id := range []string{v.ID, shared.ID} {
					resp, data := postJSON(t, hs.URL+"/v1/sessions/"+id+"/edits", SessionEditRequest{
						Edits: []EditSpec{{Op: "scale_delay", Edge: (w + k) % 50, Scale: 1.01}},
					})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("worker %d edit: %d %s", w, resp.StatusCode, data)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestApplyErrorStatus checks the session-edit failure classification:
// cancellation stays 408, re-analysis faults (server-side) become 500, and
// only edit validation is answered as the client's fault.
func TestApplyErrorStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{context.Canceled, http.StatusRequestTimeout},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), http.StatusRequestTimeout},
		// A re-analysis interrupted by the client deadline is still a 408.
		{&ssta.ReanalysisError{Err: context.Canceled}, http.StatusRequestTimeout},
		{&ssta.ReanalysisError{Err: errStub("restitch failed")}, http.StatusInternalServerError},
		{errStub("edge index 99 out of range"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := applyErrorStatus(c.err); got != c.want {
			t.Errorf("applyErrorStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

type errStub string

func (e errStub) Error() string { return string(e) }
