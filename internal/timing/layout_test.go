package timing

import (
	"context"
	"testing"

	"repro/internal/canon"
	"repro/internal/circuit"
)

// buildBoth builds c's timing graph twice: in walk order (Build) and in
// circuit-node order (build).
func buildBoth(t *testing.T, c *circuit.Circuit) (walk, node *Graph) {
	t.Helper()
	lib, plan, gm := placed(t, c)
	var err error
	if walk, err = Build(c, lib, plan, gm); err != nil {
		t.Fatal(err)
	}
	if node, err = build(c, lib, plan, gm); err != nil {
		t.Fatal(err)
	}
	return walk, node
}

// layoutCircuits returns the flat and clocked variants of c17 and of the
// named ISCAS85 stand-ins, generated with seed 1.
func layoutCircuits(t *testing.T, names ...string) []*circuit.Circuit {
	t.Helper()
	clk, err := circuit.Clocked(circuit.C17())
	if err != nil {
		t.Fatal(err)
	}
	cs := []*circuit.Circuit{circuit.C17(), clk}
	for _, name := range names {
		spec, ok := circuit.SpecByName(name)
		if !ok {
			t.Fatalf("unknown spec %s", name)
		}
		flat, err := circuit.Generate(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := circuit.GenerateClocked(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, flat, seq)
	}
	return cs
}

// TestBuildWalkOrder pins Build's layout: vertices numbered by level (the
// wave order is the identity), every edge running from a lower id to a
// higher one, edge ids ascending with To, each fan-in list a run of
// consecutive ascending edge ids in gather order, and each register's
// clk->Q edge running from the clock root to its Q vertex.
func TestBuildWalkOrder(t *testing.T) {
	for _, c := range layoutCircuits(t, "c432", "c1908") {
		g, node := buildBoth(t, c)
		if g.NumVerts != node.NumVerts || len(g.Edges) != len(node.Edges) {
			t.Fatalf("%s: %d verts %d edges, node order has %d and %d", c.Name, g.NumVerts, len(g.Edges), node.NumVerts, len(node.Edges))
		}
		lv, err := g.Levels()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range lv.Wave {
			if int(v) != i {
				t.Fatalf("%s: wave slot %d holds vertex %d", c.Name, i, v)
			}
		}
		for ei, e := range g.Edges {
			if e.From >= e.To {
				t.Fatalf("%s: edge %d runs %d->%d", c.Name, ei, e.From, e.To)
			}
			if ei > 0 && e.To < g.Edges[ei-1].To {
				t.Fatalf("%s: edge %d ends at %d after edge %d ends at %d", c.Name, ei, e.To, ei-1, g.Edges[ei-1].To)
			}
		}
		next := int32(0)
		for v := 0; v < g.NumVerts; v++ {
			sorted := lv.FaninSorted(v)
			if len(sorted) != len(g.In[v]) {
				t.Fatalf("%s: vertex %d has %d fanin edges, gather plan %d", c.Name, v, len(g.In[v]), len(sorted))
			}
			for k, ei := range g.In[v] {
				if ei != next || sorted[k] != ei {
					t.Fatalf("%s: vertex %d fanin %v, want consecutive ids from %d in gather order %v", c.Name, v, g.In[v], next, sorted)
				}
				next++
			}
		}
		for _, r := range g.Registers {
			e := &g.Edges[r.ClkEdge]
			if e.From != g.ClockRoots[0] || e.To != r.Q {
				t.Fatalf("%s: register %q clk edge %d->%d, want %d->%d", c.Name, r.Name, e.From, e.To, g.ClockRoots[0], r.Q)
			}
		}
	}
}

// TestBuildLayoutBitIdentical: the walk-order graph answers exactly what
// the node-order graph answers — delay, every output's late arrival and,
// on clocked designs, every register's setup and hold slack with the worst
// ones — bit for bit, on all ten ISCAS85 stand-ins, flat and clocked.
func TestBuildLayoutBitIdentical(t *testing.T) {
	var names []string
	for _, s := range circuit.ISCAS85Specs {
		names = append(names, s.Name)
	}
	for _, c := range layoutCircuits(t, names...) {
		walk, node := buildBoth(t, c)
		wantOut := make([]*canon.Form, len(node.Outputs))
		wantDelay, wantSeq, err := node.AnalyzeCtx(context.Background(), nil, ClockSpec{}, wantOut)
		if err != nil {
			t.Fatal(err)
		}
		gotOut := make([]*canon.Form, len(walk.Outputs))
		gotDelay, gotSeq, err := walk.AnalyzeCtx(context.Background(), nil, ClockSpec{}, gotOut)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(gotDelay, wantDelay) {
			t.Fatalf("%s: delay differs", c.Name)
		}
		for i := range wantOut {
			if (gotOut[i] == nil) != (wantOut[i] == nil) || (wantOut[i] != nil && !sameBits(gotOut[i], wantOut[i])) {
				t.Fatalf("%s: output %s differs", c.Name, node.OutputNames[i])
			}
		}
		if (gotSeq != nil) != c.Sequential() || (wantSeq == nil) != (gotSeq == nil) {
			t.Fatalf("%s: sequential result %v, node order %v", c.Name, gotSeq != nil, wantSeq != nil)
		}
		if gotSeq != nil {
			if d := seqDiff(gotSeq, wantSeq); d != "" {
				t.Fatalf("%s: %s", c.Name, d)
			}
		}
	}
}

// TestGraphDigest: the digest identifies a graph's timing content. Two
// builds of one circuit agree; another seed, the clocked variant, the
// node-order layout, a changed delay and a renamed port all differ.
func TestGraphDigest(t *testing.T) {
	spec, _ := circuit.SpecByName("c432")
	gen := func(seed int64, clocked bool) *circuit.Circuit {
		generate := circuit.Generate
		if clocked {
			generate = circuit.GenerateClocked
		}
		c, err := generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	g, node := buildBoth(t, gen(1, false))
	again, _ := buildBoth(t, gen(1, false))
	want := g.Digest()
	if again.Digest() != want {
		t.Fatal("two builds of one circuit have different digests")
	}
	seed7, _ := buildBoth(t, gen(7, false))
	clocked, _ := buildBoth(t, gen(1, true))
	edited := g.Clone()
	d := *edited.Edges[0].Delay
	d.Nominal++
	if err := edited.SetEdgeDelay(0, &d); err != nil {
		t.Fatal(err)
	}
	renamed := g.Clone()
	renamed.OutputNames[0] += "'"
	for name, other := range map[string]*Graph{
		"seed 7": seed7, "clocked": clocked, "node order": node, "edited delay": edited, "renamed output": renamed,
	} {
		if other.Digest() == want {
			t.Errorf("%s: digest equals the original's", name)
		}
	}
	if g.Digest() != want {
		t.Fatal("digest changed without an edit")
	}
}
