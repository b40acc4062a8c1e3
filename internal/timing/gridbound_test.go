package timing

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/place"
	"repro/internal/variation"
)

// TestMinComponentsBoundsRetainedCount: the eigensolve-free bound
// FromSnapshot checks never exceeds the component count the grid model
// really keeps, on the grid of every ISCAS85 stand-in, flat and clocked,
// and of the abutted quad design over it (twice the grid each way).
func TestMinComponentsBoundsRetainedCount(t *testing.T) {
	corr, err := variation.DefaultCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	check := func(nx, ny int) {
		if seen[[2]int{nx, ny}] {
			return
		}
		seen[[2]int{nx, ny}] = true
		gm, err := variation.NewGridModel(nx, ny, place.DefaultPitch, corr)
		if err != nil {
			t.Fatal(err)
		}
		if lo := variation.MinComponents(nx, ny, corr); lo > gm.Comps || lo < 1 {
			t.Errorf("%dx%d grid: bound %d, model keeps %d components", nx, ny, lo, gm.Comps)
		}
	}
	for _, spec := range circuit.ISCAS85Specs {
		flat, err := circuit.Generate(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := circuit.GenerateClocked(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*circuit.Circuit{flat, seq} {
			plan, err := place.Topological(c, place.DefaultPitch)
			if err != nil {
				t.Fatal(err)
			}
			check(plan.NX, plan.NY)
			check(2*plan.NX, 2*plan.NY)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("only %d distinct grids checked", len(seen))
	}
}

// TestFromSnapshotRefusesGridBeyondComponents: a snapshot whose grid was
// enlarged past what its form space's components can hold is refused by
// the bound, without the eigensolve.
func TestFromSnapshotRefusesGridBeyondComponents(t *testing.T) {
	g := buildBench(t, "c432", 1)
	s := g.Snapshot()
	s.Grid.NX, s.Grid.NY = 16, 16
	_, err := FromSnapshot(s)
	if err == nil {
		t.Fatal("FromSnapshot accepted a 16x16 grid with the 2x1 grid's components")
	}
	t.Log(err)
}
