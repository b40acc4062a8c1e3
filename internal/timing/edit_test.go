package timing

import (
	"strings"
	"testing"

	"repro/internal/canon"
)

// TestStaleDelayBankCannotServeEdits is the regression fence for the flat
// edge-delay bank: after the bank has been built (second pass), every edit
// path must leave it either patched or structurally invalidated, so a
// post-edit pass can never read the pre-edit delay.
func TestStaleDelayBankCannotServeEdits(t *testing.T) {
	build := func() *Graph { return buildC17(t) }

	// Two passes force the flat bank into existence.
	warm := func(g *Graph) {
		for i := 0; i < 2; i++ {
			if _, err := g.MaxDelay(); err != nil {
				t.Fatal(err)
			}
		}
		g.delayMu.Lock()
		built := g.delayBank != nil
		g.delayMu.Unlock()
		if !built {
			t.Fatal("flat delay bank not built after two passes")
		}
	}

	t.Run("SetEdgeDelay", func(t *testing.T) {
		g := build()
		warm(g)
		want := build() // same graph, edit applied before any pass
		f := want.Edges[3].Delay.Clone()
		f.Nominal += 50
		if err := want.SetEdgeDelay(3, f); err != nil {
			t.Fatal(err)
		}
		if err := g.SetEdgeDelay(3, f); err != nil {
			t.Fatal(err)
		}
		got, err := g.MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		if d := formDiff(got, ref); d > passTol {
			t.Fatalf("post-edit pass differs from fresh graph by %g — stale bank served", d)
		}
		if base, _ := build().MaxDelay(); formDiff(got, base) < 1e-6 {
			t.Fatal("edit had no effect on the delay — edit not applied")
		}
	})

	t.Run("ScaleEdgeDelay", func(t *testing.T) {
		g := build()
		warm(g)
		before, _ := g.MaxDelay()
		if err := g.ScaleEdgeDelay(0, 4.0); err != nil {
			t.Fatal(err)
		}
		after, err := g.MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		if formDiff(before, after) < 1e-9 {
			t.Fatal("scaling an edge 4x did not change the delay — stale bank served")
		}
	})

	t.Run("AddEdgeLive", func(t *testing.T) {
		g := build()
		warm(g)
		before, _ := g.MaxDelay()
		// A heavy bypass edge from the first input to the last vertex.
		if _, err := g.AddEdgeLive(g.Inputs[0], g.NumVerts-1, g.Space.Const(1000), nil, 0); err != nil {
			t.Fatal(err)
		}
		after, err := g.MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		if after.Mean() < before.Mean()+500 {
			t.Fatalf("added 1000ps edge not visible: %g -> %g", before.Mean(), after.Mean())
		}
	})

	t.Run("RemoveEdge", func(t *testing.T) {
		g := build()
		warm(g)
		ei, err := g.AddEdgeLive(g.Inputs[0], g.NumVerts-1, g.Space.Const(1000), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		heavy, _ := g.MaxDelay()
		if err := g.RemoveEdge(ei); err != nil {
			t.Fatal(err)
		}
		after, err := g.MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		if after.Mean() >= heavy.Mean()-500 {
			t.Fatalf("removed 1000ps edge still visible: %g -> %g", heavy.Mean(), after.Mean())
		}
		ref, _ := build().MaxDelay()
		if d := formDiff(after, ref); d > passTol {
			t.Fatalf("add+remove does not round-trip: differs by %g", d)
		}
	})
}

func TestAddEdgeLiveRejectsCycles(t *testing.T) {
	g := buildC17(t)
	g.takeDirty() // drop construction-time metadata so the check below is precise
	ref, _ := g.MaxDelay()
	// Any back edge along an existing edge closes a cycle.
	e := g.Edges[0]
	if _, err := g.AddEdgeLive(e.To, e.From, g.Space.Const(1), nil, 0); err == nil {
		t.Fatal("cycle-closing edge accepted")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The rejected edit must not have mutated anything.
	after, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d := formDiff(ref, after); d != 0 {
		t.Fatalf("rejected edit changed the graph (diff %g)", d)
	}
	if g.dirtyFull || len(g.fwdDirty) != 0 {
		t.Fatal("rejected edit left dirty metadata behind")
	}
}

func TestEditValidation(t *testing.T) {
	g := buildC17(t)
	if err := g.SetEdgeDelay(len(g.Edges), g.Space.Const(1)); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.ScaleEdgeDelay(0, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	if err := g.ScaleEdgeDelay(0, -1); err == nil {
		t.Fatal("negative scale accepted")
	}
	if err := g.SetEdgeDelay(0, (canon.Space{Globals: 1, Components: 1}).NewForm()); err == nil {
		t.Fatal("wrong-space form accepted")
	}
	if err := g.RemoveEdge(2); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(2); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := g.ScaleEdgeDelay(2, 2); err == nil {
		t.Fatal("edit of removed edge accepted")
	}
	if err := g.RetargetIO([]int{-1}, nil, []string{"x"}, nil); err == nil {
		t.Fatal("out-of-range input accepted")
	}
}

// TestRetargetIOValidatesBeforeMutation fences the validate-before-mutate
// contract of the edit API: a rejected retarget must not leave half-recorded
// dirty seeds behind.
func TestRetargetIOValidatesBeforeMutation(t *testing.T) {
	g := buildC17(t)
	// Absorb the construction-time metadata (raw AddEdge marks the whole
	// graph dirty) so the fences below see only what RetargetIO leaves.
	if _, err := g.NewIncremental(); err != nil {
		t.Fatal(err)
	}
	if err := g.RetargetIO(g.Inputs, g.Outputs, g.InputNames[:len(g.InputNames)-1], g.OutputNames); err == nil {
		t.Fatal("input name count mismatch accepted")
	}
	if g.dirtyPending() {
		t.Fatal("rejected retarget (name count) left dirty metadata behind")
	}
	if err := g.RetargetIO([]int{g.NumVerts}, g.Outputs, []string{"x"}, g.OutputNames); err == nil {
		t.Fatal("out-of-range input accepted")
	}
	if g.dirtyPending() {
		t.Fatal("rejected retarget (vertex range) left dirty metadata behind")
	}
}

func TestCloneIsolation(t *testing.T) {
	g := buildC17(t)
	ref, _ := g.MaxDelay()
	cl := g.Clone()
	if err := cl.ScaleEdgeDelay(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddEdgeLive(cl.Inputs[0], cl.NumVerts-1, cl.Space.Const(500), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveEdge(1); err != nil {
		t.Fatal(err)
	}
	after, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d := formDiff(ref, after); d != 0 {
		t.Fatalf("editing the clone changed the original (diff %g)", d)
	}
	if len(g.Edges) != 12 || g.Edges[1].Removed {
		t.Fatal("clone edits leaked structure into the original")
	}
}
