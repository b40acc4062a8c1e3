package timing

import (
	"testing"

	"repro/internal/canon"
)

// TestLevelsWavefronts checks the cached level structure on the fuzz base
// graph: level consistency with fan-in, wave partitioning, and monotone
// detection on a freshly computed Kahn order.
func TestLevelsWavefronts(t *testing.T) {
	g := fuzzBaseGraph(t)
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if !levelMonotone(t, g, lv) {
		t.Fatal("fresh Kahn order must be level-monotone")
	}
	for e := range g.Edges {
		ed := &g.Edges[e]
		if lv.Level[ed.To] <= lv.Level[ed.From] {
			t.Fatalf("edge %d->%d: level %d !< %d", ed.From, ed.To, lv.Level[ed.From], lv.Level[ed.To])
		}
	}
	seen := 0
	for k := 0; k <= lv.MaxLevel; k++ {
		for _, vi := range lv.Wave[lv.Starts[k]:lv.Starts[k+1]] {
			if int(lv.Level[vi]) != k {
				t.Fatalf("vertex %d in wave %d has level %d", vi, k, lv.Level[vi])
			}
			seen++
		}
	}
	if seen != g.NumVerts {
		t.Fatalf("waves cover %d of %d vertices", seen, g.NumVerts)
	}
	lv2, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv2 != lv {
		t.Fatal("Levels not cached across calls")
	}
}

// TestLevelsNonMonotoneAfterRemove constructs the order-preserving edit
// that leaves a cached topological order with decreasing levels: removing
// an edge keeps the order but can drop its target's level below that of
// earlier-ordered vertices. The waves must still group the vertices by
// level, and a pass over them must still produce correct results.
func TestLevelsNonMonotoneAfterRemove(t *testing.T) {
	// a=0, b=1, u=2, v=3; edges a->b, b->u, a->v. Kahn order [a,b,v,u]
	// carries levels (0,1,1,2); removing b->u drops u to level 0 while the
	// (still valid) cached order keeps u last: (0,1,1,0) is non-monotone.
	g := NewGraph(fuzzSpace, 4, nil)
	form := func(nom float64) *canon.Form {
		f := fuzzSpace.NewForm()
		f.Nominal = nom
		f.Rand = 0.5
		return f
	}
	mustEdge(t, g, 0, 1, form(3))
	bu, err := g.AddEdge(1, 2, form(4), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g, 0, 3, form(5))
	if err := g.SetIO([]int{0}, []int{3}, []string{"a"}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Order(); err != nil {
		t.Fatal(err)
	}
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if !levelMonotone(t, g, lv) {
		t.Fatalf("pre-edit order should be monotone (levels %v)", lv.Level)
	}
	if err := g.RemoveEdge(bu); err != nil {
		t.Fatal(err)
	}
	lv, err = g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if levelMonotone(t, g, lv) {
		t.Fatalf("order with levels %v over cached order should be non-monotone", lv.Level)
	}
	if lv.Level[2] != 0 {
		t.Fatalf("u level %d after losing its only fanin", lv.Level[2])
	}
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(g.Inputs...); err != nil {
		t.Fatal(err)
	}
	if p.Reached(2) {
		t.Fatal("u still reached after removing its only fanin")
	}
	if got := p.At(3).Nominal(); got != 5 {
		t.Fatalf("arrival at v: nominal %g, want 5", got)
	}
}

// levelMonotone reports whether the graph's cached topological order visits
// the levels in non-decreasing order.
func levelMonotone(t *testing.T, g *Graph, lv *Levels) bool {
	t.Helper()
	order, err := g.Order()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if lv.Level[order[i]] < lv.Level[order[i-1]] {
			return false
		}
	}
	return true
}

// TestPassPoolMixedSizes pins the size-classed pool contract: recycling a
// small buffer must never starve (or poison) a later, larger request, and a
// steady-state workload alternating between two graph sizes performs no
// slab allocations.
func TestPassPoolMixedSizes(t *testing.T) {
	// A small recycled slab must not be handed back for a bigger request.
	putSlab(make([]float64, 64))
	if s := takeSlab(1 << 12); cap(s) < 1<<12 {
		t.Fatalf("takeSlab(%d) returned cap %d", 1<<12, cap(s))
	}
	putMask(make([]bool, 64))
	if m := takeMask(4000); cap(m) < 4000 || len(m) != 4000 {
		t.Fatalf("takeMask(4000) returned len %d cap %d", len(m), cap(m))
	}
	// Steady state across mixed graph sizes: the per-class pools serve both
	// request sizes without fresh slab allocations. The fence bounds the
	// small per-acquire bookkeeping (Pass/Bank headers, pool boxing); a
	// dropped-buffer regression re-allocates vertex-count-sized slabs every
	// iteration and blows well past it.
	small := fuzzBaseGraph(t)
	big := buildBench(t, "c880", 7)
	run := func() {
		for _, g := range []*Graph{small, big} {
			p := g.AcquirePass()
			if err := p.Arrivals(g.Inputs...); err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
	}
	run() // warm the pools and the cached levels/orders
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 12 {
		t.Fatalf("mixed-size pass loop allocates %.1f objects per iteration", allocs)
	}
}
