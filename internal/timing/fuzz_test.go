package timing

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/canon"
)

// fuzzSpace/fuzzVerts fix the graph the edit fuzzer mutates: big enough to
// have interesting cones and order-violating edge candidates, small enough
// that one fuzz iteration (build + edits + repeated full-pass differential
// checks) stays in the microsecond range.
var fuzzSpace = canon.Space{Globals: 2, Components: 4}

const fuzzVerts = 28

// fuzzBaseGraph builds a deterministic layered DAG with pseudo-random
// delay forms: 4 inputs, 4 outputs, ~3 fanins per internal vertex.
func fuzzBaseGraph(tb testing.TB) *Graph {
	g := NewGraph(fuzzSpace, fuzzVerts, nil)
	rng := rand.New(rand.NewSource(1234))
	form := func() *canon.Form {
		f := fuzzSpace.NewForm()
		f.Nominal = 5 + 20*rng.Float64()
		for i := range f.Glob {
			f.Glob[i] = rng.NormFloat64()
		}
		for i := range f.Loc {
			f.Loc[i] = 0.5 * rng.NormFloat64()
		}
		f.Rand = 0.5 + rng.Float64()
		return f
	}
	for v := 4; v < fuzzVerts; v++ {
		fanin := 1 + rng.Intn(3)
		for k := 0; k < fanin; k++ {
			from := rng.Intn(v)
			if _, err := g.AddEdge(from, v, form(), nil, 0); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := g.SetIO(
		[]int{0, 1, 2, 3},
		[]int{fuzzVerts - 4, fuzzVerts - 3, fuzzVerts - 2, fuzzVerts - 1},
		[]string{"a", "b", "c", "d"},
		[]string{"w", "x", "y", "z"},
	); err != nil {
		tb.Fatal(err)
	}
	return g
}

// fuzzCheck compares the incremental state (after absorbing all pending
// edits) against from-scratch forward/backward passes at 1e-9, the
// engine's equivalence contract, and every frontier-arena analysis against
// the full-arena reference bit for bit, unscaled and scaled.
func fuzzCheck(tb testing.TB, g *Graph, inc *Incremental, step int) {
	checkFrontier(tb, fmt.Sprintf("step %d", step), g, nil, ClockSpec{})
	checkFrontier(tb, fmt.Sprintf("step %d scaled", step), g, randomScale(g, int64(step)), ClockSpec{})
	if _, err := inc.Update(context.Background()); err != nil {
		tb.Fatalf("step %d: update: %v", step, err)
	}
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(g.Inputs...); err != nil {
		tb.Fatalf("step %d: full pass: %v", step, err)
	}
	for v := 0; v < g.NumVerts; v++ {
		want := p.Form(v)
		got, err := inc.Arrival(v)
		if err != nil {
			tb.Fatalf("step %d vertex %d: %v", step, v, err)
		}
		if (got == nil) != (want == nil) {
			tb.Fatalf("step %d vertex %d: reachability diverged (inc %v, full %v)", step, v, got != nil, want != nil)
		}
		if got != nil && formDiff(got, want) > 1e-9 {
			tb.Fatalf("step %d vertex %d: incremental arrival differs from full pass by %g",
				step, v, formDiff(got, want))
		}
	}
	if err := p.Required(g.Outputs...); err != nil {
		tb.Fatalf("step %d: full backward pass: %v", step, err)
	}
	for v := 0; v < g.NumVerts; v++ {
		want := p.Form(v)
		got, err := inc.Required(v)
		if err != nil {
			tb.Fatalf("step %d vertex %d: required: %v", step, v, err)
		}
		if (got == nil) != (want == nil) {
			tb.Fatalf("step %d vertex %d: required reachability diverged", step, v)
		}
		if got != nil && formDiff(got, want) > 1e-9 {
			tb.Fatalf("step %d vertex %d: incremental required differs from full pass by %g",
				step, v, formDiff(got, want))
		}
	}
}

// FuzzGraphEdits drives the graph edit API + incremental engine with a
// byte-coded edit script: every 4-byte chunk is one operation (scale, set
// delay/nominal, add — including order-violating and cycle-closing
// candidates —, remove — including double-removes of tombstoned edges —,
// retarget IO — onto the last vertices or a mid band —, or an explicit
// differential checkpoint). The invariants are "no panic on any input",
// "incremental == from-scratch at 1e-9" and "frontier-arena analysis ==
// full arena bit for bit", at every checkpoint and at the end.
func FuzzGraphEdits(f *testing.F) {
	f.Add([]byte{
		0, 5, 16, 0, // scale edge 5
		1, 9, 55, 0, // set nominal
		3, 2, 14, 0, // add edge (likely order-respecting)
		6, 0, 0, 0, // checkpoint
		4, 3, 0, 0, // remove edge 3
		4, 3, 0, 0, // double-remove (tombstone error path)
		3, 20, 4, 0, // add edge high->low (order-violating or cycle)
		5, 1, 0, 0, // retarget IO
		6, 0, 0, 0, // checkpoint
	})
	f.Add([]byte{2, 0, 200, 3, 2, 1, 0, 9, 6, 0, 0, 0})
	f.Add([]byte{3, 27, 0, 1, 3, 26, 1, 2, 4, 0, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 5, 2, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{6, 0, 0, 0, 5, 1, 1, 0, 6, 0, 0, 0, 3, 14, 15, 2, 4, 7, 0, 0, 5, 0, 0, 0})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512] // bound per-input cost, scripts repeat ops anyway
		}
		g := fuzzBaseGraph(t)
		inc, err := g.NewIncremental()
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.EnableRequired(context.Background()); err != nil {
			t.Fatal(err)
		}
		steps := 0
		for len(script) >= 4 {
			op, a, b, c := script[0], script[1], script[2], script[3]
			script = script[4:]
			steps++
			switch op % 7 {
			case 0: // scale edge
				scale := 0.25 + float64(b)/64 // (0.25 .. 4.25)
				_ = g.ScaleEdgeDelay(int(a)%len(g.Edges), scale)
			case 1: // set nominal
				_ = g.SetEdgeNominal(int(a)%len(g.Edges), float64(b))
			case 2: // set delay (byte-derived form)
				fm := fuzzSpace.NewForm()
				fm.Nominal = float64(b)
				fm.Glob[int(c)%len(fm.Glob)] = float64(c) / 16
				fm.Loc[int(a)%len(fm.Loc)] = float64(a) / 32
				fm.Rand = float64(c) / 64
				_ = g.SetEdgeDelay(int(a)%len(g.Edges), fm)
			case 3: // add edge — cycle and order-violation candidates included
				from, to := int(a)%g.NumVerts, int(b)%g.NumVerts
				delay := fuzzSpace.Const(1 + float64(c)/8)
				_, _ = g.AddEdgeLive(from, to, delay, nil, 0)
			case 4: // remove edge — tombstoned targets included
				_ = g.RemoveEdge(int(a) % len(g.Edges))
			case 5: // retarget IO: rotate the IO sets over a fixed vertex menu
				r := int(a) % 4
				ins := []int{0, 1, 2, 3}
				outs := []int{fuzzVerts - 4, fuzzVerts - 3, fuzzVerts - 2, fuzzVerts - 1}
				if b%2 == 1 { // outputs on a mid band, which has fan-out
					outs = []int{fuzzVerts / 2, fuzzVerts/2 + 1, fuzzVerts/2 + 2, fuzzVerts/2 + 3}
				}
				names := []string{"p", "q", "r", "s"}
				_ = g.RetargetIO(
					append(ins[r:], ins[:r]...),
					append(outs[r:], outs[:r]...),
					names, names)
			case 6: // differential checkpoint
				fuzzCheck(t, g, inc, steps)
			}
		}
		fuzzCheck(t, g, inc, steps+1)
	})
}
