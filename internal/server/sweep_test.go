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

func sweepHTTP(t *testing.T, base string, req SweepRequest) SweepResponse {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/sweep: status %d: %s", resp.StatusCode, data)
	}
	var out SweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("/v1/sweep: bad body %q: %v", data, err)
	}
	return out
}

func testSweepSpecs() []SweepScenarioSpec {
	return []SweepScenarioSpec{
		{ScenarioSpec: ssta.ScenarioSpec{Name: "unit"}},
		{ScenarioSpec: ssta.ScenarioSpec{Name: "hot", Derate: 1.15}},
		{ScenarioSpec: ssta.ScenarioSpec{Name: "sigma", GlobSigma: 1.4, RandSigma: 1.2}},
	}
}

func testSweepScenarios() []ssta.Scenario {
	return []ssta.Scenario{
		{Name: "unit"},
		{Name: "hot", Derate: 1.15},
		{Name: "sigma", GlobSigma: 1.4, RandSigma: 1.2},
	}
}

// TestSweepMatchesDirect is the e2e acceptance check: /v1/sweep over HTTP
// equals the direct SweepAnalyze/SweepAnalyzeGraph path at 1e-9, for both
// a flat benchmark item and a hierarchical quad item with a module swap.
func TestSweepMatchesDirect(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	flow := ssta.DefaultFlow()

	// Flat item.
	got := sweepHTTP(t, hs.URL, SweepRequest{
		ItemSpec:  ItemSpec{Bench: "c432", Seed: 1},
		Scenarios: testSweepSpecs(),
	})
	g, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ssta.SweepAnalyzeGraph(context.Background(), g, testSweepScenarios(), ssta.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	compareSweep(t, "flat", got, want)

	// Quad item with a cross-seed module-swap scenario.
	specs := append(testSweepSpecs(), SweepScenarioSpec{
		ScenarioSpec: ssta.ScenarioSpec{Name: "eco"},
		Swaps:        map[string]SwapSpec{"B": {Bench: "c432", Seed: 2}},
	})
	gotQ := sweepHTTP(t, hs.URL, SweepRequest{
		ItemSpec:  ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}},
		Scenarios: specs,
	})
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ssta.NewModule("c432", model, plan)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flow.QuadDesign("quad", mod)
	if err != nil {
		t.Fatal(err)
	}
	g2, plan2, err := flow.BenchGraph("c432", 2)
	if err != nil {
		t.Fatal(err)
	}
	model2, err := flow.Extract(g2, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod2, err := ssta.NewModule("c432", model2, plan2)
	if err != nil {
		t.Fatal(err)
	}
	scens := append(testSweepScenarios(), ssta.Scenario{
		Name:  "eco",
		Swaps: map[string]*ssta.Module{"B": mod2},
	})
	wantQ, err := ssta.SweepAnalyze(context.Background(), d, ssta.FullCorrelation, scens, ssta.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	compareSweep(t, "quad", gotQ, wantQ)
	if gotQ.Results[3].Shared {
		t.Fatal("swap scenario claims shared prep")
	}
}

// TestSweepStitchCacheHit: the second sweep of the same quad design reuses
// the design's stitched top graph, and /metrics shows it as a stitch-cache
// hit with no new miss.
func TestSweepStitchCacheHit(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := SweepRequest{
		ItemSpec:  ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}},
		Scenarios: testSweepSpecs(),
	}
	first := sweepHTTP(t, hs.URL, req)
	hits0 := metricValue(t, hs.URL, "sstad_stitch_cache_hits_total")
	misses0 := metricValue(t, hs.URL, "sstad_stitch_cache_misses_total")
	if hits0 < 0 || misses0 < 1 {
		t.Fatalf("after the first sweep: stitch hits %g, misses %g (want series present, >= 1 miss)", hits0, misses0)
	}
	second := sweepHTTP(t, hs.URL, req)
	if hits := metricValue(t, hs.URL, "sstad_stitch_cache_hits_total"); hits != hits0+1 {
		t.Fatalf("second identical-design sweep: stitch hits %g -> %g, want one hit", hits0, hits)
	}
	if misses := metricValue(t, hs.URL, "sstad_stitch_cache_misses_total"); misses != misses0 {
		t.Fatalf("second identical-design sweep re-stitched: misses %g -> %g", misses0, misses)
	}
	for i := range first.Results {
		if first.Results[i].MeanPS != second.Results[i].MeanPS || first.Results[i].StdPS != second.Results[i].StdPS {
			t.Fatalf("scenario %q: cached-stitch answer %+v differs from first %+v", first.Results[i].Name, second.Results[i], first.Results[i])
		}
	}
}

func compareSweep(t *testing.T, label string, got SweepResponse, want *ssta.SweepReport) {
	t.Helper()
	if got.Completed != want.Completed || got.Scenarios != len(want.Results) {
		t.Fatalf("%s: accounting %d/%d, want %d/%d", label, got.Completed, got.Scenarios, want.Completed, len(want.Results))
	}
	for i, w := range want.Results {
		r := got.Results[i]
		if w.Err != nil {
			if r.Error == "" {
				t.Fatalf("%s scenario %q: direct failed (%v), HTTP succeeded", label, w.Name, w.Err)
			}
			continue
		}
		if r.Error != "" {
			t.Fatalf("%s scenario %q: HTTP error %s", label, w.Name, r.Error)
		}
		if math.Abs(r.MeanPS-w.Mean) > 1e-9 || math.Abs(r.StdPS-w.Std) > 1e-9 || math.Abs(r.P9987PS-w.Quantile) > 1e-9 {
			t.Fatalf("%s scenario %q: HTTP (%g, %g, %g) vs direct (%g, %g, %g)",
				label, w.Name, r.MeanPS, r.StdPS, r.P9987PS, w.Mean, w.Std, w.Quantile)
		}
	}
	if math.Abs(got.Envelope.MeanPS-want.Envelope.Mean) > 1e-9 ||
		math.Abs(got.Envelope.StdPS-want.Envelope.Std) > 1e-9 ||
		math.Abs(got.Envelope.P9987PS-want.Envelope.Quantile) > 1e-9 ||
		got.Envelope.Worst != want.Envelope.Worst {
		t.Fatalf("%s: envelope %+v vs direct %+v", label, got.Envelope, want.Envelope)
	}
}

// TestSweepEnvelopeIsMaxOverResults is the wire-level golden: the envelope
// equals the max over the per-scenario results in the same response.
func TestSweepEnvelopeIsMaxOverResults(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	got := sweepHTTP(t, hs.URL, SweepRequest{
		ItemSpec:  ItemSpec{Bench: "c880", Seed: 1},
		Scenarios: testSweepSpecs(),
	})
	var mean, std, q float64
	worst := ""
	for _, r := range got.Results {
		if r.Error != "" {
			t.Fatalf("scenario %q: %s", r.Name, r.Error)
		}
		mean = math.Max(mean, r.MeanPS)
		std = math.Max(std, r.StdPS)
		if r.P9987PS > q {
			q = r.P9987PS
			worst = r.Name
		}
	}
	if got.Envelope.MeanPS != mean || got.Envelope.StdPS != std || got.Envelope.P9987PS != q || got.Envelope.Worst != worst {
		t.Fatalf("envelope %+v is not the max over results (want %g %g %g %q)", got.Envelope, mean, std, q, worst)
	}
}

// TestSweepDeadlinePartialAccounting: a deadline far shorter than the
// sweep still yields a 200 with one definite outcome per scenario and
// Completed < Scenarios.
func TestSweepDeadlinePartialAccounting(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	// Enough single-worker scenarios that the sweep takes several times the
	// deadline even on a fast machine: each c7552 scenario costs a few ms.
	var specs []SweepScenarioSpec
	for k := 0; k < 256; k++ {
		specs = append(specs, SweepScenarioSpec{
			ScenarioSpec: ssta.ScenarioSpec{Name: fmt.Sprintf("s%d", k), Derate: 1 + float64(k)/1000},
		})
	}
	// Warm the graph cache so the timed request spends its deadline on
	// scenarios, not on building c7552 (which alone can exceed it under
	// race instrumentation and would yield a 408 before the sweep starts).
	sweepHTTP(t, hs.URL, SweepRequest{
		ItemSpec:  ItemSpec{Bench: "c7552", Seed: 1},
		Scenarios: specs[:1],
		TimeoutMS: 60000,
	})
	got := sweepHTTP(t, hs.URL, SweepRequest{
		ItemSpec:  ItemSpec{Bench: "c7552", Seed: 1},
		Scenarios: specs,
		Workers:   1,
		TimeoutMS: 200,
	})
	if got.Scenarios != len(specs) {
		t.Fatalf("accounting covers %d of %d scenarios", got.Scenarios, len(specs))
	}
	completed, failed := 0, 0
	for _, r := range got.Results {
		switch {
		case r.Error != "":
			failed++
		case r.MeanPS > 0:
			completed++
		default:
			t.Fatalf("scenario %q has neither value nor error", r.Name)
		}
	}
	if completed != got.Completed || completed+failed != got.Scenarios {
		t.Fatalf("accounting mismatch: completed %d (reported %d), failed %d, total %d",
			completed, got.Completed, failed, got.Scenarios)
	}
	if got.Completed >= got.Scenarios {
		t.Skip("machine finished the whole sweep inside the deadline; partial path not exercised")
	}
}

// TestSweepLoadShedding: with every analysis slot held, /v1/sweep sheds
// load with 429 instead of queueing past its deadline.
func TestSweepLoadShedding(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	s.sem <- struct{}{} // hold the only slot
	defer func() { <-s.sem }()
	resp, data := postJSON(t, hs.URL+"/v1/sweep", SweepRequest{
		ItemSpec:  ItemSpec{Bench: "c432", Seed: 1},
		Scenarios: testSweepSpecs(),
		TimeoutMS: 100,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
}

func TestSweepBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxItems: 4})
	for name, req := range map[string]SweepRequest{
		"no-scenarios":  {ItemSpec: ItemSpec{Bench: "c432", Seed: 1}},
		"no-item":       {Scenarios: testSweepSpecs()},
		"two-items":     {ItemSpec: ItemSpec{Bench: "c432", Mult: 4}, Scenarios: testSweepSpecs()},
		"bad-factor":    {ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: []SweepScenarioSpec{{ScenarioSpec: ssta.ScenarioSpec{Derate: -2}}}},
		"swaps-on-flat": {ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: []SweepScenarioSpec{{Swaps: map[string]SwapSpec{"B": {Bench: "c432"}}}}},
		"swap-no-bench": {ItemSpec: ItemSpec{Quad: &QuadSpec{Bench: "c432"}}, Scenarios: []SweepScenarioSpec{{Swaps: map[string]SwapSpec{"B": {}}}}},
		"too-many": {ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: []SweepScenarioSpec{
			{}, {}, {}, {}, {}}},
	} {
		resp, data := postJSON(t, hs.URL+"/v1/sweep", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
	}
	// Unknown fields are rejected.
	resp, data := postJSON(t, hs.URL+"/v1/sweep", map[string]any{"bench": "c432", "frob": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d: %s", resp.StatusCode, data)
	}
}

// TestSweepDefaultScenarios: a request naming no scenarios falls back to
// the server's configured set (sstad -scenarios).
func TestSweepDefaultScenarios(t *testing.T) {
	_, hs := newTestServer(t, Config{DefaultScenarios: testSweepSpecs()})
	got := sweepHTTP(t, hs.URL, SweepRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	if got.Scenarios != 3 || got.Completed != 3 {
		t.Fatalf("default scenario set not served: %+v", got)
	}
	if got.Results[1].Name != "hot" {
		t.Fatalf("default scenario names lost: %+v", got.Results)
	}
}

// TestSweepVsSessionConcurrent races sweeps against session edits over the
// same cached graph — the cross-surface concurrency contract (run under
// -race in CI).
func TestSweepVsSessionConcurrent(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 4})
	resp, data := postJSON(t, hs.URL+"/v1/sessions", map[string]any{"bench": "c880", "seed": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: %d: %s", resp.StatusCode, data)
	}
	var sv SessionView
	if err := json.Unmarshal(data, &sv); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, data := postJSON(t, hs.URL+"/v1/sweep", SweepRequest{
					ItemSpec:  ItemSpec{Bench: "c880", Seed: 1},
					Scenarios: testSweepSpecs(),
					TimeoutMS: 60000,
				})
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("sweep: %d: %s", resp.StatusCode, data)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		scales := []float64{2, 0.5}
		for i := 0; i < 6; i++ {
			resp, data := postJSON(t, hs.URL+"/v1/sessions/"+sv.ID+"/edits", SessionEditRequest{
				Edits:     []EditSpec{{Op: "scale_delay", Edge: 5, Scale: scales[i%2]}},
				TimeoutMS: 60000,
			})
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("edit: %d: %s", resp.StatusCode, data)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errCh:
		t.Fatal(err)
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent sweep/session run timed out")
	}
}

// TestSweepMetrics: the sweep surface shows up on /metrics.
func TestSweepMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	sweepHTTP(t, hs.URL, SweepRequest{
		ItemSpec:  ItemSpec{Bench: "c432", Seed: 1},
		Scenarios: testSweepSpecs(),
	})
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"sstad_sweep_requests_total 1",
		"sstad_sweep_scenarios_total 3",
		"sstad_sweep_scenario_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
