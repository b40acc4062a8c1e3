package timing

import (
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/place"
	"repro/internal/variation"
)

func TestBuildRejectsBadInputs(t *testing.T) {
	c := circuit.C17()
	lib := cell.Synthetic90nm()
	plan, _ := place.Topological(c, place.DefaultPitch)
	if _, err := Build(c, lib, plan, nil); err == nil {
		t.Fatal("nil grid model accepted")
	}
	empty := &cell.Library{}
	corr, _ := variation.DefaultCorrelation()
	gm, _ := variation.NewGridModel(plan.NX, plan.NY, plan.Pitch, corr)
	if _, err := Build(c, empty, plan, gm); err == nil {
		t.Fatal("library without parameters accepted")
	}
}

func TestArrivalFromBadSource(t *testing.T) {
	g := buildC17(t)
	if _, err := passArrivals(g, -1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := passArrivals(g, g.NumVerts+5); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := passRequired(g, -2); err == nil {
		t.Fatal("negative output accepted")
	}
}

func TestSlewAwareDelaysDifferFromRefSlew(t *testing.T) {
	// Gates driven by sharp internal edges must have arcs different from a
	// pure reference-slew characterization; the difference is bounded by
	// the slew sensitivity times the slew range.
	g := buildC17(t)
	lib := cell.Synthetic90nm()
	spec, _ := lib.Spec(circuit.Nand)
	arcRef, _ := lib.Arc(circuit.Nand, 0, 1)
	var sawDifferent bool
	for _, e := range g.Edges {
		if e.Delay.Nominal != arcRef.Nominal && math.Abs(e.Delay.Nominal-arcRef.Nominal) < spec.SlewSens*100 {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Fatal("no slew-adjusted arcs found — slew-aware build inactive?")
	}
}

func TestBoundaryCharacterizationShapes(t *testing.T) {
	g := buildBench(t, "c432", 1)
	if g.RefSlew != cell.RefSlew {
		t.Fatalf("RefSlew = %g", g.RefSlew)
	}
	if len(g.InputSlewSlopes) != len(g.Inputs) {
		t.Fatal("input slew slopes shape")
	}
	if len(g.OutputPortSlews) != len(g.Outputs) || len(g.OutputSlewSlopes) != len(g.Outputs) ||
		len(g.OutputLoadSlopes) != len(g.Outputs) {
		t.Fatal("output characterization shape")
	}
	for i := range g.Inputs {
		if g.InputSlewSlopes[i] <= 0 {
			t.Fatalf("input %d slew slope %g (every PI drives at least one gate)", i, g.InputSlewSlopes[i])
		}
	}
}

func TestMaxDelayDeterministic(t *testing.T) {
	g := buildBench(t, "c499", 2)
	a, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean() != b.Mean() || a.Std() != b.Std() {
		t.Fatal("MaxDelay not deterministic")
	}
}

func TestAllPairsWorkerInvariance(t *testing.T) {
	g := buildBench(t, "c432", 1)
	a, err := g.AllPairsDelays(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AllPairsDelays(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.M {
		for j := range a.M[i] {
			fa, fb := a.M[i][j], b.M[i][j]
			if (fa == nil) != (fb == nil) {
				t.Fatal("worker count changed reachability")
			}
			if fa != nil && (fa.Mean() != fb.Mean() || fa.Std() != fb.Std()) {
				t.Fatal("worker count changed results")
			}
		}
	}
}

func TestCornerOnExtractedModelPath(t *testing.T) {
	// The corner fallback for edges without structural data uses the PCA
	// block norms; exercise it via a hand-built graph with Loc-only edges.
	s := canon.Space{Globals: 2, Components: 4}
	g := NewGraph(s, 3, nil)
	f1 := s.Const(10)
	f1.Loc[0], f1.Loc[1] = 3, 4 // block norm 5 for param 0
	f2 := s.Const(20)
	f2.Glob[1] = 2
	f2.Rand = 1
	if _, err := g.AddEdge(0, 1, f1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 2, f2, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.SetIO([]int{0}, []int{2}, []string{"in"}, []string{"out"}); err != nil {
		t.Fatal(err)
	}
	c, err := g.CornerDelay(1)
	if err != nil {
		t.Fatal(err)
	}
	// Edge 1: 10 + (5 + 0) = 15; edge 2: 20 + (2 + 1) = 23. Total 38.
	if math.Abs(c-38) > 1e-9 {
		t.Fatalf("corner = %g, want 38", c)
	}
}

func TestGraphWithNoEdgesToOutput(t *testing.T) {
	s := canon.Space{Globals: 1, Components: 1}
	g := NewGraph(s, 2, nil)
	if err := g.SetIO([]int{0}, []int{1}, []string{"in"}, []string{"out"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.MaxDelay(); err == nil {
		t.Fatal("unreachable output should error")
	}
}
