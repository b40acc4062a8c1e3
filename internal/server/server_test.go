package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/ssta"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func analyze(t *testing.T, base string, req AnalyzeRequest) AnalyzeResponse {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/analyze: status %d: %s", resp.StatusCode, data)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("/v1/analyze: bad body %q: %v", data, err)
	}
	return out
}

// TestAnalyzeMatchesDirectBatch is the end-to-end acceptance check: a
// generated benchmark and a quad hierarchical design submitted over HTTP
// produce the same delays as the direct ssta.AnalyzeBatch path at 1e-9.
func TestAnalyzeMatchesDirectBatch(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	got := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{
		{Bench: "c432", Seed: 1},
		{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
		{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "global"},
	}})
	if len(got.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(got.Results))
	}
	for k, r := range got.Results {
		if r.Error != "" {
			t.Fatalf("item %d failed: %s", k, r.Error)
		}
	}

	// Direct path on an independent flow: same deterministic pipeline.
	flow := ssta.DefaultFlow()
	g, plan, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ssta.NewModule("c432", model, plan)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := flow.QuadDesign("quad", mod)
	if err != nil {
		t.Fatal(err)
	}
	want := flow.AnalyzeBatch([]ssta.BatchItem{
		{Graph: g},
		{Design: quad, Mode: ssta.FullCorrelation},
		{Design: quad, Mode: ssta.GlobalOnly},
	}, ssta.BatchOptions{Workers: 1})
	for k, r := range want {
		if r.Err != nil {
			t.Fatalf("direct item %d: %v", k, r.Err)
		}
		if d := math.Abs(got.Results[k].MeanPS - r.Delay.Mean()); d > 1e-9 {
			t.Fatalf("item %d mean: http %.12f vs direct %.12f (|d|=%g)",
				k, got.Results[k].MeanPS, r.Delay.Mean(), d)
		}
		if d := math.Abs(got.Results[k].StdPS - r.Delay.Std()); d > 1e-9 {
			t.Fatalf("item %d std: http %.12f vs direct %.12f (|d|=%g)",
				k, got.Results[k].StdPS, r.Delay.Std(), d)
		}
	}
}

// TestAnalyzeNetlistAndMult: the other two flat input kinds round-trip.
func TestAnalyzeNetlistAndMult(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	netlist := `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`
	got := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{
		{Name: "c17", Netlist: netlist},
		{Mult: 4},
	}})
	for k, r := range got.Results {
		if r.Error != "" {
			t.Fatalf("item %d failed: %s", k, r.Error)
		}
		if r.MeanPS <= 0 || r.StdPS <= 0 {
			t.Fatalf("item %d: implausible delay %+v", k, r)
		}
	}
	// The inline c17 must match the embedded netlist's direct analysis.
	direct := ssta.AnalyzeBatch([]ssta.BatchItem{{Circuit: ssta.C17()}}, ssta.BatchOptions{Workers: 1})
	if direct[0].Err != nil {
		t.Fatal(direct[0].Err)
	}
	if d := math.Abs(got.Results[0].MeanPS - direct[0].Delay.Mean()); d > 1e-9 {
		t.Fatalf("netlist c17 mean differs from direct by %g", d)
	}
}

// heavySpecs returns a batch big enough (dozens of distinct c7552 builds
// and analyses) that mid-flight cancellation is observable: fractions of a
// second of work even on a fast machine, with plenty of scheduling points
// for context deadlines to fire.
func heavySpecs(firstSeed int64, n int) ([]ItemSpec, []ssta.BatchItem) {
	specs := make([]ItemSpec, n)
	direct := make([]ssta.BatchItem, n)
	for k := range specs {
		specs[k] = ItemSpec{Bench: "c7552", Seed: firstSeed + int64(k)}
		direct[k] = ssta.BatchItem{Bench: "c7552", Seed: firstSeed + int64(k)}
	}
	return specs, direct
}

// TestServerDeadlineCancelsWork: a request whose deadline is far shorter
// than its batch returns promptly with per-item deadline errors instead of
// running the work to completion.
func TestServerDeadlineCancelsWork(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	// Measure the full batch first so "returns before its work completes"
	// is asserted against this machine's own speed.
	items, direct := heavySpecs(100, 40)
	start := time.Now()
	for _, r := range ssta.DefaultFlow().AnalyzeBatch(direct, ssta.BatchOptions{Workers: 1}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	full := time.Since(start)

	start = time.Now()
	got := analyze(t, hs.URL, AnalyzeRequest{Items: items, TimeoutMS: 30, Workers: 1})
	elapsed := time.Since(start)
	if elapsed >= full {
		t.Fatalf("cancelled request took %v, full batch takes %v", elapsed, full)
	}
	deadline, completed := 0, 0
	for _, r := range got.Results {
		switch {
		case strings.Contains(r.Error, context.DeadlineExceeded.Error()):
			deadline++
		case r.Error == "":
			completed++
		default:
			t.Fatalf("unexpected item error: %s", r.Error)
		}
	}
	if deadline == 0 {
		t.Fatalf("no item reported the deadline (completed %d/%d in %v, full %v)",
			completed, len(items), elapsed, full)
	}
}

// TestClientDisconnectCancels: closing the client side of a slow request
// unblocks quickly (the server observes r.Context() through the batch).
func TestClientDisconnectCancels(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	items, _ := heavySpecs(200, 40)
	body, _ := json.Marshal(AnalyzeRequest{Items: items, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/analyze", bytes.NewReader(body))
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite cancelled client context")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled client blocked for %v", d)
	}
	// The server side must wind down too: wait for its analysis slot to
	// free without the batch having run to completion.
	deadline := time.Now().Add(30 * time.Second)
	for s.activeAnalyses() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server still analyzing long after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsLifecycle: async submit, poll to completion, equivalence with
// the sync path, and 404 for unknown ids.
func TestJobsLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	sync := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{{Bench: "c880", Seed: 7}}})

	resp, data := postJSON(t, hs.URL+"/v1/jobs", AnalyzeRequest{Items: []ItemSpec{{Bench: "c880", Seed: 7}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || (v.Status != JobQueued && v.Status != JobRunning) {
		t.Fatalf("submit view: %+v", v)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for v.Status != JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", v.Status)
		}
		time.Sleep(20 * time.Millisecond)
		r, err := http.Get(hs.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", r.StatusCode, data)
		}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobFailed || v.Status == JobCancelled {
			t.Fatalf("job ended %q: %s", v.Status, v.Error)
		}
	}
	if v.Result == nil || len(v.Result.Results) != 1 || v.Result.Results[0].Error != "" {
		t.Fatalf("job result: %+v", v.Result)
	}
	if d := math.Abs(v.Result.Results[0].MeanPS - sync.Results[0].MeanPS); d > 1e-9 {
		t.Fatalf("async mean differs from sync by %g", d)
	}

	if r, err := http.Get(hs.URL + "/v1/jobs/nope"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v %v", r.StatusCode, err)
	} else {
		r.Body.Close()
	}
}

// TestJobQueueBounded: with one busy worker and a depth-1 queue the third
// submission is refused with 503, and cancelling the running job works.
func TestJobQueueBounded(t *testing.T) {
	_, hs := newTestServer(t, Config{QueueDepth: 1, JobWorkers: 1, MaxConcurrent: 1})
	specs, _ := heavySpecs(300, 60)
	heavy := AnalyzeRequest{Items: specs, Workers: 1}

	resp, data := postJSON(t, hs.URL+"/v1/jobs", heavy)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: status %d: %s", resp.StatusCode, data)
	}
	var a JobView
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	// Wait until A occupies the worker so B deterministically queues.
	deadline := time.Now().Add(time.Minute)
	for a.Status != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job A stuck in %q", a.Status)
		}
		time.Sleep(10 * time.Millisecond)
		r, _ := http.Get(hs.URL + "/v1/jobs/" + a.ID)
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
	}
	if resp, data = postJSON(t, hs.URL+"/v1/jobs", heavy); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status %d: %s", resp.StatusCode, data)
	}
	if resp, data = postJSON(t, hs.URL+"/v1/jobs", heavy); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job C admitted past the queue bound: status %d: %s", resp.StatusCode, data)
	}

	// Cancel the running job; it must end cancelled, not run 16 items.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+a.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	deadline = time.Now().Add(time.Minute)
	for a.Status == JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("cancelled job did not stop")
		}
		time.Sleep(10 * time.Millisecond)
		r, _ := http.Get(hs.URL + "/v1/jobs/" + a.ID)
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
	}
	if a.Status != JobCancelled {
		t.Fatalf("job A ended %q, want %q", a.Status, JobCancelled)
	}
}

// TestHealthzAndMetrics: liveness plus the cache/queue/latency counters,
// including an extraction-cache hit driven by graph identity reuse.
func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	r, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(data), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", r.StatusCode, data)
	}

	// Same (bench, seed) twice with extract: the second run reuses the
	// cached graph pointer, so the extraction cache must register a hit.
	req := AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 5, Extract: true}}}
	for i := 0; i < 2; i++ {
		out := analyze(t, hs.URL, req)
		if out.Results[0].Error != "" {
			t.Fatalf("run %d: %s", i, out.Results[0].Error)
		}
		if out.Results[0].ModelEdges == 0 {
			t.Fatalf("run %d: extraction did not report a model", i)
		}
	}

	r, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(r.Body)
	r.Body.Close()
	text := string(data)
	for _, want := range []string{
		"sstad_extract_cache_hits_total 1",
		"sstad_extract_cache_misses_total 1",
		"sstad_extractions_total 1",
		"sstad_graph_cache_hits_total 1",
		"sstad_items_total 2",
		"sstad_item_latency_seconds_count 2",
		`sstad_requests_total{endpoint="analyze"} 2`,
		"sstad_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if secs := metricValue(t, hs.URL, "sstad_extract_seconds_total"); secs <= 0 {
		t.Fatalf("sstad_extract_seconds_total = %g after a cold extraction, want > 0", secs)
	}
}

// TestBadRequests: admission-layer validation.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxItems: 2})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed", `{"items":`, http.StatusBadRequest},
		{"empty", `{"items":[]}`, http.StatusBadRequest},
		{"unknown field", `{"itemz":[{"bench":"c432"}]}`, http.StatusBadRequest},
		{"too many items", `{"items":[{"bench":"c432"},{"bench":"c432"},{"bench":"c432"}]}`, http.StatusBadRequest},
		{"wrong method", ``, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var resp *http.Response
		var err error
		if tc.name == "wrong method" {
			resp, err = http.Get(hs.URL + "/v1/analyze")
		} else {
			resp, err = http.Post(hs.URL+"/v1/analyze", "application/json", strings.NewReader(tc.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}

	// Per-item spec errors surface in the result, not as HTTP failures.
	out := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{
		{Bench: "c432", Mult: 4},
		{Bench: "no-such-bench"},
	}})
	if !strings.Contains(out.Results[0].Error, "exactly one") {
		t.Fatalf("ambiguous item error: %q", out.Results[0].Error)
	}
	if out.Results[1].Error == "" {
		t.Fatal("unknown bench accepted")
	}
}

// TestQuadModeDiffers sanity-checks that the two correlation modes reach
// the server: the paper's proposed mode and the global-only baseline give
// different standard deviations for the same quad design.
func TestQuadModeDiffers(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	out := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{
		{Quad: &QuadSpec{Bench: "c880", Seed: 3}, Mode: "full"},
		{Quad: &QuadSpec{Bench: "c880", Seed: 3}, Mode: "global"},
	}})
	for k, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", k, r.Error)
		}
	}
	if out.Results[0].StdPS == out.Results[1].StdPS {
		t.Fatalf("modes indistinguishable: std %g == %g", out.Results[0].StdPS, out.Results[1].StdPS)
	}
}

// TestQueuedCancelCountsFinished: cancelling a job that never reached a
// worker still moves it into the finished lifecycle count.
func TestQueuedCancelCountsFinished(t *testing.T) {
	st := newJobStore(4, 4)
	j, err := st.submit(AnalyzeRequest{Items: []ItemSpec{{Bench: "c432"}}})
	if err != nil {
		t.Fatal(err)
	}
	v, _, ok := st.cancelJob(j.id)
	if !ok || v.Status != JobCancelled {
		t.Fatalf("cancel: %+v ok=%v", v, ok)
	}
	queued, running, finished := st.counts()
	if queued != 0 || running != 0 || finished != 1 {
		t.Fatalf("counts = %d/%d/%d, want 0/0/1", queued, running, finished)
	}
}

// TestQueuedCancelReclaimsCapacity: cancelling a queued job frees its
// queue slot immediately — a follow-up submit must not see "queue full".
func TestQueuedCancelReclaimsCapacity(t *testing.T) {
	st := newJobStore(1, 4)
	a, err := st.submit(AnalyzeRequest{Items: []ItemSpec{{Bench: "c432"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.submit(AnalyzeRequest{}); err == nil {
		t.Fatal("second submit exceeded the depth-1 bound")
	}
	if _, _, ok := st.cancelJob(a.id); !ok {
		t.Fatal("cancel failed")
	}
	b, err := st.submit(AnalyzeRequest{Items: []ItemSpec{{Bench: "c880"}}})
	if err != nil {
		t.Fatalf("submit after queued-cancel: %v", err)
	}
	if j := st.pop(); j == nil || j.id != b.id {
		t.Fatalf("pop returned %+v, want job %s (cancelled job must not surface)", j, b.id)
	}
}
