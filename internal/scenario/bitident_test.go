package scenario_test

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/timing"
	"repro/ssta"
)

// sameResult reports whether a sweep result equals the analysis of g under
// the scenario's clock bit for bit: delay form, its statistics, and the
// worst setup/hold slack statistics.
func sameResult(t *testing.T, r *scenario.Result, g *timing.Graph, sc *scenario.Scenario, q float64) string {
	t.Helper()
	delay, seq, err := g.AnalyzeCtx(context.Background(), nil, sc.ClockSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case !sameBits(r.Delay, delay):
		return "delay form"
	case r.Mean != delay.Mean() || r.Std != delay.Std() || r.Quantile != delay.Quantile(q):
		return "delay statistics"
	case (seq == nil) != (r.SetupSlack == nil) || (seq == nil) != (r.HoldSlack == nil):
		return "slack presence"
	}
	if seq != nil {
		setup, hold := scenario.SeqSlackStats(seq, q)
		if *setup != *r.SetupSlack || *hold != *r.HoldSlack {
			return "slack statistics"
		}
	}
	return ""
}

// TestSweepBitIdenticalToTransformGraph: every scenario result of a sweep —
// over a flat graph, a clocked flat graph and the shared top of a quad
// design — equals TransformGraph + AnalyzeCtx bit for bit, slack
// quantiles included. The fused walk reads the shared bank and rescales as
// it goes; the reference materializes every scaled delay form first.
func TestSweepBitIdenticalToTransformGraph(t *testing.T) {
	ctx := context.Background()
	const q = 0.99865
	scens := testScenarios()
	clocked := append(testScenarios(),
		scenario.Scenario{Name: "hot-fast", Derate: 1.15, ClockPeriodPS: 350, ClockJitterPS: 7},
		scenario.Scenario{Name: "skew-sigma", ClockSkewPS: 12, GlobSigma: 1.3, RandSigma: 0.7})

	d, _ := quadDesign(t, 6)
	quadRep, err := scenario.SweepDesign(ctx, d, ssta.FullCorrelation, scens, scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Stitch(ctx, ssta.FullCorrelation, ssta.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		g     *timing.Graph
		scens []scenario.Scenario
		rep   *scenario.Report
	}{
		{"flat", testGraph(t, 1), scens, nil},
		{"clocked", clockedGraph(t, 11), clocked, nil},
		{"quad", res.Graph, scens, quadRep},
	} {
		rep := tc.rep
		if rep == nil {
			if rep, err = scenario.SweepGraph(ctx, tc.g, tc.scens, scenario.Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		if rep.Completed != len(tc.scens) {
			t.Fatalf("%s: completed %d of %d scenarios", tc.name, rep.Completed, len(tc.scens))
		}
		for i := range tc.scens {
			sc := &tc.scens[i]
			if d := sameResult(t, &rep.Results[i], sc.TransformGraph(tc.g), sc, q); d != "" {
				t.Fatalf("%s scenario %q: %s differs from TransformGraph + AnalyzeCtx", tc.name, sc.Name, d)
			}
		}
	}
}

// TestSweepRejectsEdgeScalesOutsideGraph: an edge_scales key that indexes
// no edge of the graph the scenario runs on fails the sweep with an error
// naming the key, on flat and design sweeps alike, instead of being
// silently ignored.
func TestSweepRejectsEdgeScalesOutsideGraph(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 4)
	for _, key := range []int{len(g.Edges), 999999, -5} {
		scens := []scenario.Scenario{{Name: "unit"}, {Name: "e", EdgeScales: map[int]float64{0: 1.1, key: 2}}}
		_, err := scenario.SweepGraph(ctx, g, scens, scenario.Options{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "edge_scales key "+strconv.Itoa(key)) {
			t.Fatalf("flat sweep with edge_scales key %d: %v", key, err)
		}
	}
	last := map[int]float64{len(g.Edges) - 1: 1.5}
	if _, err := scenario.SweepGraph(ctx, g, []scenario.Scenario{{Name: "last", EdgeScales: last}}, scenario.Options{Workers: 1}); err != nil {
		t.Fatalf("last edge rejected: %v", err)
	}

	d, mod := quadDesign(t, 4)
	res, err := d.Stitch(ctx, ssta.FullCorrelation, ssta.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := len(res.Graph.Edges)
	for _, sc := range []scenario.Scenario{
		{Name: "shared", EdgeScales: map[int]float64{top: 2}},
		{Name: "swap", EdgeScales: map[int]float64{top: 2}, Swaps: map[string]*ssta.Module{"A": mod}},
	} {
		_, err := scenario.SweepDesign(ctx, d, ssta.FullCorrelation, []scenario.Scenario{sc}, scenario.Options{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "edge_scales key "+strconv.Itoa(top)) {
			t.Fatalf("design sweep scenario %q with edge_scales key %d: %v", sc.Name, top, err)
		}
	}
	ok := scenario.Scenario{Name: "in-range", EdgeScales: map[int]float64{top - 1: 2}}
	if rep, err := scenario.SweepDesign(ctx, d, ssta.FullCorrelation, []scenario.Scenario{ok}, scenario.Options{Workers: 1}); err != nil || rep.Completed != 1 {
		t.Fatalf("in-range design edge scale: %v", err)
	}
}

// quadDesign builds the quad design of testSpec's module for a seed.
func quadDesign(t testing.TB, seed int64) (*ssta.Design, *ssta.Module) {
	t.Helper()
	flow := ssta.DefaultFlow()
	c, err := ssta.Generate(testSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, plan, err := flow.Graph(c)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ssta.NewModule("sw", model, plan)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flow.QuadDesign("quad-sw", mod)
	if err != nil {
		t.Fatal(err)
	}
	return d, mod
}

// TestValidateRejectsHugeFactors: factors above MaxKnob, or not finite,
// are refused — a 1e200 derate would otherwise overflow every variance to
// +Inf and turn the answer into NaN or a silently wrong Clark max.
func TestValidateRejectsHugeFactors(t *testing.T) {
	for _, sc := range []scenario.Scenario{
		{Derate: 1e200}, {CellScale: math.Inf(1)}, {NetScale: math.NaN()},
		{GlobSigma: 2 * scenario.MaxKnob}, {RandSigma: math.Inf(1)},
		{ClockPeriodPS: 1e200}, {ClockJitterPS: math.Inf(1)},
		{EdgeScales: map[int]float64{3: 1e200}}, {EdgeScales: map[int]float64{3: math.NaN()}},
	} {
		if err := sc.Validate(); err == nil {
			t.Fatalf("%+v accepted", sc)
		}
	}
	ok := scenario.Scenario{Derate: scenario.MaxKnob, ClockPeriodPS: scenario.MaxKnob, EdgeScales: map[int]float64{1: scenario.MaxKnob}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("factors at the cap refused: %v", err)
	}
}
