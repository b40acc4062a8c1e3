package timing

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

// applyRandomEdit applies one random supported edit to g, mirroring it on
// ref so the two graphs stay structurally identical. It returns false when
// the drawn edit was inapplicable (e.g. the candidate edge would close a
// cycle) and nothing was changed.
func applyRandomEdit(t *testing.T, rng *rand.Rand, g, ref *Graph) bool {
	t.Helper()
	pick := func(gr *Graph) int {
		for {
			ei := rng.Intn(len(gr.Edges))
			if !gr.Edges[ei].Removed {
				return ei
			}
		}
	}
	switch op := rng.Intn(4); op {
	case 0: // scale
		ei := pick(g)
		scale := 0.5 + rng.Float64()*1.5
		if err := g.ScaleEdgeDelay(ei, scale); err != nil {
			t.Fatal(err)
		}
		if err := ref.ScaleEdgeDelay(ei, scale); err != nil {
			t.Fatal(err)
		}
	case 1: // set nominal
		ei := pick(g)
		nom := 10 + rng.Float64()*200
		if err := g.SetEdgeNominal(ei, nom); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetEdgeNominal(ei, nom); err != nil {
			t.Fatal(err)
		}
	case 2: // add edge between random order-compatible vertices
		from := rng.Intn(g.NumVerts)
		to := rng.Intn(g.NumVerts)
		if from == to {
			return false
		}
		delay := g.Space.Const(5 + rng.Float64()*100)
		if _, err := g.AddEdgeLive(from, to, delay, nil, 0); err != nil {
			return false // would close a cycle; skip
		}
		if _, err := ref.AddEdgeLive(from, to, delay, nil, 0); err != nil {
			t.Fatalf("ref rejected edge the live graph accepted: %v", err)
		}
	case 3: // remove edge (keep at least one fanin of each output intact by retrying on disconnects later)
		ei := pick(g)
		if err := g.RemoveEdge(ei); err != nil {
			t.Fatal(err)
		}
		if err := ref.RemoveEdge(ei); err != nil {
			t.Fatal(err)
		}
	}
	return true
}

// TestIncrementalMatchesFullRandomEdits is the flat-graph golden test: N
// random edits applied through the edit API with incremental re-propagation
// must match a from-scratch full pass over an identically edited graph at
// 1e-9, arrival by arrival.
func TestIncrementalMatchesFullRandomEdits(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		t.Run(name, func(t *testing.T) {
			base := buildBench(t, name, 1)
			g := base.Clone()
			ref := base.Clone()
			inc, err := g.NewIncremental()
			if err != nil {
				t.Fatal(err)
			}
			if err := inc.EnableRequired(context.Background()); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			const edits = 40
			checkEvery := 5
			for n := 0; n < edits; n++ {
				if !applyRandomEdit(t, rng, g, ref) {
					continue
				}
				if _, err := inc.Update(context.Background()); err != nil {
					t.Fatal(err)
				}
				if n%checkEvery != 0 {
					continue
				}
				// Full from-scratch forward pass on the reference graph.
				p := ref.AcquirePass()
				if err := p.Arrivals(ref.Inputs...); err != nil {
					t.Fatal(err)
				}
				for v := 0; v < g.NumVerts; v++ {
					if p.Reached(v) != inc.Reached(v) {
						t.Fatalf("edit %d: vertex %d reach %v vs full %v", n, v, inc.Reached(v), p.Reached(v))
					}
					if !p.Reached(v) {
						continue
					}
					got, err := inc.Arrival(v)
					if err != nil {
						t.Fatal(err)
					}
					if d := formDiff(got, p.Form(v)); d > 1e-9 {
						t.Fatalf("edit %d: vertex %d arrival differs by %g", n, v, d)
					}
				}
				p.Release()
				// Required times against a full backward pass.
				q := ref.AcquirePass()
				if err := q.Required(ref.Outputs...); err != nil {
					t.Fatal(err)
				}
				for v := 0; v < g.NumVerts; v++ {
					got, err := inc.Required(v)
					if err != nil {
						t.Fatal(err)
					}
					if (got == nil) != !q.Reached(v) {
						t.Fatalf("edit %d: vertex %d required reach mismatch", n, v)
					}
					if got == nil {
						continue
					}
					if d := formDiff(got, q.Form(v)); d > 1e-9 {
						t.Fatalf("edit %d: vertex %d required differs by %g", n, v, d)
					}
				}
				q.Release()
				// And the headline number. Random removals may disconnect
				// every output; both engines must then agree on the error.
				want, werr := ref.MaxDelay()
				got, gerr := inc.MaxDelay()
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("edit %d: max delay errors disagree: %v vs %v", n, gerr, werr)
				}
				if werr == nil {
					if d := formDiff(got, want); d > 1e-9 {
						t.Fatalf("edit %d: max delay differs by %g", n, d)
					}
				}
			}
		})
	}
}

// TestIncrementalRetargetIO re-bases the sources/sinks and checks against a
// full pass.
func TestIncrementalRetargetIO(t *testing.T) {
	g := buildBench(t, "c432", 1)
	inc, err := g.NewIncremental()
	if err != nil {
		t.Fatal(err)
	}
	// Drop the first half of the inputs and the last output.
	nIn := len(g.Inputs)/2 + 1
	ins := append([]int(nil), g.Inputs[:nIn]...)
	inNames := append([]string(nil), g.InputNames[:nIn]...)
	outs := append([]int(nil), g.Outputs[:len(g.Outputs)-1]...)
	outNames := append([]string(nil), g.OutputNames[:len(g.Outputs)-1]...)
	if err := g.RetargetIO(ins, outs, inNames, outNames); err != nil {
		t.Fatal(err)
	}
	st, err := inc.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatal("IO retarget fell back to full rebuild")
	}
	got, err := inc.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d := formDiff(got, want); d > 1e-9 {
		t.Fatalf("post-retarget delay differs by %g", d)
	}
}

// TestEnableRequiredRejectsPendingEdits fences EnableRequired against
// unabsorbed edit metadata: with a RetargetIO pending, its syncIO would
// rebase the sources/outputs early and the later Update would seed
// new-and-new instead of old-and-new endpoints, so former sources would
// keep stale arrival state. The call must refuse until Update absorbed the
// edits.
func TestEnableRequiredRejectsPendingEdits(t *testing.T) {
	g := buildBench(t, "c432", 1)
	inc, err := g.NewIncremental()
	if err != nil {
		t.Fatal(err)
	}
	nIn := len(g.Inputs)/2 + 1
	ins := append([]int(nil), g.Inputs[:nIn]...)
	inNames := append([]string(nil), g.InputNames[:nIn]...)
	outs := append([]int(nil), g.Outputs...)
	outNames := append([]string(nil), g.OutputNames...)
	if err := g.RetargetIO(ins, outs, inNames, outNames); err != nil {
		t.Fatal(err)
	}
	if err := inc.EnableRequired(context.Background()); err == nil {
		t.Fatal("EnableRequired accepted a graph with pending edits")
	}
	if _, err := inc.Update(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := inc.EnableRequired(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The required state seeded after the absorb must match a full pass.
	q := g.AcquirePass()
	defer q.Release()
	if err := q.Required(g.Outputs...); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVerts; v++ {
		got, err := inc.Required(v)
		if err != nil {
			t.Fatal(err)
		}
		if (got == nil) != !q.Reached(v) {
			t.Fatalf("vertex %d required reach mismatch", v)
		}
		if got == nil {
			continue
		}
		if d := formDiff(got, q.Form(v)); d > 1e-9 {
			t.Fatalf("vertex %d required differs by %g", v, d)
		}
	}
}

// TestIncrementalRawAddEdgeFallsBack checks the conservative path: a raw
// AddEdge (no cycle guard, no seeds) must force a full rebuild rather than
// serve stale state.
func TestIncrementalRawAddEdgeFallsBack(t *testing.T) {
	g := buildC17(t)
	inc, err := g.NewIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(g.Inputs[0], g.NumVerts-1, g.Space.Const(1000), nil, 0); err != nil {
		t.Fatal(err)
	}
	st, err := inc.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatal("raw AddEdge did not force a full rebuild")
	}
	got, _ := inc.MaxDelay()
	want, _ := g.MaxDelay()
	if d := formDiff(got, want); d > 1e-12 {
		t.Fatalf("rebuilt state differs by %g", d)
	}
}

// TestIncrementalConeSmallerThanGraph is the acceptance fence: a
// single-edge edit on the largest generated benchmark must re-propagate
// measurably fewer vertices than a full pass. The edited edge is chosen
// deterministically with a mid-sized fan-out cone so the assertion tests
// the engine, not a lucky leaf.
func TestIncrementalConeSmallerThanGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("c7552 build in -short mode")
	}
	g := buildBench(t, "c7552", 1)
	inc, err := g.NewIncremental()
	if err != nil {
		t.Fatal(err)
	}
	// Fan-out cone size per vertex, to pick a representative edge.
	coneSize := func(v int) int {
		seen := make([]bool, g.NumVerts)
		stack := []int{v}
		seen[v] = true
		n := 0
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n++
			for _, ei := range g.Out[x] {
				to := g.Edges[ei].To
				if !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		return n
	}
	// First edge whose head has a cone of at least 32 vertices but at most
	// a quarter of the graph.
	edit := -1
	for ei := range g.Edges {
		if c := coneSize(g.Edges[ei].To); c >= 32 && c <= g.NumVerts/4 {
			edit = ei
			break
		}
	}
	if edit < 0 {
		t.Fatal("no edge with a mid-sized cone found")
	}
	cone := coneSize(g.Edges[edit].To)
	if err := g.ScaleEdgeDelay(edit, 1.25); err != nil {
		t.Fatal(err)
	}
	st, err := inc.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatal("single-edge edit fell back to full rebuild")
	}
	if st.Forward == 0 {
		t.Fatal("edit re-propagated nothing")
	}
	if st.Forward > cone {
		t.Fatalf("re-propagated %d vertices, more than the %d-vertex cone", st.Forward, cone)
	}
	if st.Forward >= g.NumVerts/2 {
		t.Fatalf("re-propagated %d of %d vertices — not measurably fewer than a full pass",
			st.Forward, g.NumVerts)
	}
	t.Logf("c7552: %d verts, cone %d, recomputed %d", g.NumVerts, cone, st.Forward)
	// The result still matches a full pass.
	got, err := inc.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d := formDiff(got, want); d > 1e-9 {
		t.Fatalf("incremental delay differs from full by %g", d)
	}
}

// TestIncrementalCancellation interrupts an update and checks the state
// recovers via full rebuild instead of serving a half-swept arena.
func TestIncrementalCancellation(t *testing.T) {
	g := buildBench(t, "c880", 1)
	inc, err := g.NewIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ScaleEdgeDelay(0, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inc.Update(ctx); err == nil {
		// The cone may be swept before the first ctx poll; that is fine —
		// the state is then consistent and nothing needs recovery.
		t.Skip("update completed before cancellation was observed")
	}
	if _, err := inc.MaxDelay(); err == nil {
		t.Fatal("stale state served a delay")
	}
	st, err := inc.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatal("recovery did not rebuild")
	}
	got, _ := inc.MaxDelay()
	want, _ := g.MaxDelay()
	if d := formDiff(got, want); d > 1e-12 {
		t.Fatalf("recovered state differs by %g", d)
	}
}

// TestNewIncrementalRejectsBadPorts: SetIO does not validate vertices, so a
// port outside the graph must surface as an error from NewIncremental —
// the same error a Pass returns — and never as an index panic.
func TestNewIncrementalRejectsBadPorts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ins, outs []int
	}{
		{"input", []int{7}, []int{2}},
		{"output", []int{0}, []int{7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(fuzzSpace, 3, nil)
			mustEdge(t, g, 0, 1, fuzzSpace.Const(1))
			mustEdge(t, g, 1, 2, fuzzSpace.Const(2))
			if err := g.SetIO(tc.ins, tc.outs, []string{"a"}, []string{"z"}); err != nil {
				t.Fatal(err)
			}
			if _, err := g.NewIncremental(); err == nil || !strings.Contains(err.Error(), "vertex 7 out of range") {
				t.Fatalf("NewIncremental: err = %v, want out-of-range error", err)
			}
		})
	}
}
