package scenario_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/scenario"
	"repro/ssta"
)

var testSpec = ssta.TopoSpec{Name: "sw", PIs: 8, POs: 4, Gates: 60, Edges: 130, Depth: 8}

func testGraph(t testing.TB, seed int64) *ssta.Graph {
	t.Helper()
	c, err := ssta.Generate(testSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := ssta.DefaultFlow().Graph(c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func formDiff(a, b *canon.Form) float64 {
	d := math.Abs(a.Nominal - b.Nominal)
	for i := range a.Glob {
		if v := math.Abs(a.Glob[i] - b.Glob[i]); v > d {
			d = v
		}
	}
	for i := range a.Loc {
		if v := math.Abs(a.Loc[i] - b.Loc[i]); v > d {
			d = v
		}
	}
	if v := math.Abs(a.Rand - b.Rand); v > d {
		d = v
	}
	return d
}

func testScenarios() []scenario.Scenario {
	return []scenario.Scenario{
		{Name: "unit"},
		{Name: "hot", Derate: 1.18},
		{Name: "cold", Derate: 0.91},
		{Name: "aged-cells", CellScale: 1.07},
		{Name: "sigma-up", GlobSigma: 1.5, LocSigma: 1.25, RandSigma: 1.1},
		{Name: "edge-eco", EdgeScales: map[int]float64{3: 1.4, 17: 0.8}},
		{Name: "combo", Derate: 1.05, LocSigma: 1.3, EdgeScales: map[int]float64{5: 1.2}},
	}
}

// sameBits reports whether two forms are equal bit for bit.
func sameBits(a, b *canon.Form) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Nominal, b.Nominal) || !eq(a.Rand, b.Rand) || len(a.Glob) != len(b.Glob) || len(a.Loc) != len(b.Loc) {
		return false
	}
	for i := range a.Glob {
		if !eq(a.Glob[i], b.Glob[i]) {
			return false
		}
	}
	for i := range a.Loc {
		if !eq(a.Loc[i], b.Loc[i]) {
			return false
		}
	}
	return true
}

// TestScaleKernelMatchesTransformForm pins the fused gather's rescale
// kernel to the pointer-form transform the differential paths use: adding
// an edge delay through canon.AddScaledViews equals adding its
// TransformForm image, bit for bit.
func TestScaleKernelMatchesTransformForm(t *testing.T) {
	space := canon.Space{Globals: 3, Components: 12}
	rng := rand.New(rand.NewSource(7))
	random := func() *canon.Form {
		f := space.NewForm()
		f.Nominal = 100 * rng.Float64()
		for i := range f.Glob {
			f.Glob[i] = rng.NormFloat64()
		}
		for i := range f.Loc {
			f.Loc[i] = rng.NormFloat64()
		}
		f.Rand = 2 * rng.Float64()
		return f
	}
	sc := scenario.Scenario{Derate: 1.13, GlobSigma: 1.4, LocSigma: 0.8, RandSigma: 2.1}
	bank := canon.NewBank(space, 3)
	for iter := 0; iter < 200; iter++ {
		arr, f := random(), random()
		bank.View(0).LoadForm(arr)
		bank.View(1).LoadForm(f)
		canon.AddScaledViews(bank.View(2), bank.View(0), bank.View(1), space.Globals, 1.13, 1.4, 0.8, 2.1)
		want := canon.Add(arr, sc.TransformForm(space, 0, true, f))
		if got := bank.View(2).Form(space); !sameBits(got, want) {
			t.Fatalf("iter %d: kernel and TransformForm disagree: %v vs %v", iter, got, want)
		}
	}
}

// TestSweepGraphMatchesTransformedAnalyze is the per-scenario equivalence
// contract: each sweep result equals a from-scratch analysis of a graph
// whose edges were explicitly transformed, at 1e-9.
func TestSweepGraphMatchesTransformedAnalyze(t *testing.T) {
	g := testGraph(t, 1)
	scens := testScenarios()
	rep, err := scenario.SweepGraph(context.Background(), g, scens, scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(scens) {
		t.Fatalf("completed %d of %d scenarios", rep.Completed, len(scens))
	}
	for i, sc := range scens {
		r := rep.Results[i]
		if r.Err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, r.Err)
		}
		if !r.Shared {
			t.Fatalf("scenario %q did not run on the shared graph", sc.Name)
		}
		want, err := sc.TransformGraph(g).MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		if d := formDiff(r.Delay, want); d > 1e-9 {
			t.Fatalf("scenario %q: sweep differs from transformed analysis by %g", sc.Name, d)
		}
	}
	// The identity scenario must reproduce the plain analysis exactly.
	base, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d := formDiff(rep.Results[0].Delay, base); d > 1e-9 {
		t.Fatalf("identity scenario differs from MaxDelay by %g", d)
	}
}

// TestSweepEnvelopeGolden pins the envelope contract: component-wise max
// over per-scenario independent analyses.
func TestSweepEnvelopeGolden(t *testing.T) {
	g := testGraph(t, 2)
	scens := testScenarios()
	rep, err := scenario.SweepGraph(context.Background(), g, scens, scenario.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantMean, wantStd, wantQ float64
	var worst string
	for _, sc := range scens {
		delay, err := sc.TransformGraph(g).MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		wantMean = math.Max(wantMean, delay.Mean())
		wantStd = math.Max(wantStd, delay.Std())
		if q := delay.Quantile(0.99865); q > wantQ {
			wantQ = q
			worst = sc.Name
			if sc.Name == "" {
				worst = "scenario-0"
			}
		}
	}
	if math.Abs(rep.Envelope.Mean-wantMean) > 1e-9 ||
		math.Abs(rep.Envelope.Std-wantStd) > 1e-9 ||
		math.Abs(rep.Envelope.Quantile-wantQ) > 1e-9 {
		t.Fatalf("envelope %+v, want mean %g std %g q %g", rep.Envelope, wantMean, wantStd, wantQ)
	}
	if rep.Envelope.Worst != worst {
		t.Fatalf("envelope worst %q, want %q", rep.Envelope.Worst, worst)
	}
}

func TestSweepDivergenceRanking(t *testing.T) {
	g := testGraph(t, 3)
	scens := []scenario.Scenario{
		{Name: "base"},
		{Name: "tiny", Derate: 1.001},
		{Name: "huge", Derate: 1.5},
		{Name: "mid", Derate: 1.1},
	}
	rep, err := scenario.SweepGraph(context.Background(), g, scens, scenario.Options{Workers: 1, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopDivergent) != 2 {
		t.Fatalf("want 2 divergent entries, got %d", len(rep.TopDivergent))
	}
	if rep.TopDivergent[0].Name != "huge" || rep.TopDivergent[1].Name != "mid" {
		t.Fatalf("divergence ranking wrong: %+v", rep.TopDivergent)
	}
}

func TestSweepValidation(t *testing.T) {
	g := testGraph(t, 4)
	if _, err := scenario.SweepGraph(context.Background(), g, nil, scenario.Options{}); err == nil {
		t.Fatal("empty scenario list accepted")
	}
	if _, err := scenario.SweepGraph(context.Background(), g,
		[]scenario.Scenario{{Name: "bad", Derate: -1}}, scenario.Options{}); err == nil {
		t.Fatal("negative derate accepted")
	}
	if _, err := scenario.SweepGraph(context.Background(), g,
		[]scenario.Scenario{{Name: "bad", EdgeScales: map[int]float64{0: 0}}}, scenario.Options{}); err == nil {
		t.Fatal("zero edge scale accepted")
	}
	if _, err := scenario.SweepGraph(context.Background(), g,
		[]scenario.Scenario{{Name: "swap", Swaps: map[string]*ssta.Module{"A": nil}}}, scenario.Options{}); err == nil {
		t.Fatal("swap scenario accepted on a flat graph sweep")
	}
}

// TestSweepPartialAccounting cancels the sweep after the first scenario
// completes and checks that the report still accounts for every scenario.
func TestSweepPartialAccounting(t *testing.T) {
	g := testGraph(t, 5)
	scens := testScenarios()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	done := 0
	rep, err := scenario.SweepGraph(ctx, g, scens, scenario.Options{
		Workers: 1,
		OnScenarioDone: func(i int, r *scenario.Result) {
			mu.Lock()
			done++
			if done == 1 {
				cancel()
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(scens) {
		t.Fatalf("report has %d results for %d scenarios", len(rep.Results), len(scens))
	}
	if rep.Completed < 1 || rep.Completed >= len(scens) {
		t.Fatalf("completed %d scenarios, want partial (1..%d)", rep.Completed, len(scens)-1)
	}
	failed := 0
	for _, r := range rep.Results {
		if r.Err != nil {
			failed++
		} else if r.Delay == nil {
			t.Fatalf("scenario %q has neither delay nor error", r.Name)
		}
	}
	if failed+rep.Completed != len(scens) {
		t.Fatalf("accounting mismatch: %d completed + %d failed != %d", rep.Completed, failed, len(scens))
	}
	// The hook must fire once per scenario — including the ones the pool
	// never started — so hook-side accounting matches the report.
	mu.Lock()
	defer mu.Unlock()
	if done != len(scens) {
		t.Fatalf("OnScenarioDone fired %d times for %d scenarios", done, len(scens))
	}
}

func TestParseScenarios(t *testing.T) {
	scens, err := scenario.ParseJSON([]byte(`[
		{"name":"unit"},
		{"name":"hot","derate":1.2,"glob_sigma":1.5,"edge_scales":{"3":1.1}}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 2 || scens[1].Derate != 1.2 || scens[1].GlobSigma != 1.5 || scens[1].EdgeScales[3] != 1.1 {
		t.Fatalf("parsed scenarios wrong: %+v", scens)
	}
	if !scens[0].Identity() || scens[1].Identity() {
		t.Fatal("identity classification wrong")
	}
	if _, err := scenario.ParseJSON([]byte(`[{"derate":-2}]`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := scenario.ParseJSON([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
