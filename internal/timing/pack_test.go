package timing

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
)

// packedGraphs returns the two kinds of graph whose Edge.Delay forms alias
// the delay bank: a fresh Build and a graph restored by FromSnapshot.
func packedGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	built := buildBench(t, "c432", 7)
	restored, err := FromSnapshot(buildBench(t, "c432", 7).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"build": built, "snapshot": restored}
}

// formWords returns the form in the canon.View layout, as float bits.
func formWords(f *canon.Form) []uint64 {
	var w []uint64
	w = append(w, math.Float64bits(f.Nominal))
	for _, x := range f.Glob {
		w = append(w, math.Float64bits(x))
	}
	for _, x := range f.Loc {
		w = append(w, math.Float64bits(x))
	}
	return append(w, math.Float64bits(f.Rand))
}

// viewWords returns a bank slot as float bits.
func viewWords(v canon.View) []uint64 {
	w := make([]uint64, len(v))
	for i, x := range v {
		w[i] = math.Float64bits(x)
	}
	return w
}

// TestPackedGraphAliasesDelayBank: every Edge.Delay of a built or restored
// graph is its EdgeDelays slot (Glob and Loc share the slot's storage,
// capacity-capped), and EdgeDelays hands that bank out without allocating.
func TestPackedGraphAliasesDelayBank(t *testing.T) {
	for name, g := range packedGraphs(t) {
		bank := g.EdgeDelays()
		if bank.Cap() != len(g.Edges) {
			t.Fatalf("%s: bank has %d slots for %d edges", name, bank.Cap(), len(g.Edges))
		}
		ng := g.Space.Globals
		for i := range g.Edges {
			d, v := g.Edges[i].Delay, bank.View(i)
			if &d.Glob[0] != &v[1] || &d.Loc[0] != &v[1+ng] {
				t.Fatalf("%s: edge %d delay does not alias its bank slot", name, i)
			}
			if cap(d.Glob) != ng || cap(d.Loc) != g.Space.Components {
				t.Fatalf("%s: edge %d delay slices not capacity-capped (%d, %d)", name, i, cap(d.Glob), cap(d.Loc))
			}
			if !reflect.DeepEqual(formWords(d), viewWords(v)) {
				t.Fatalf("%s: edge %d form differs from its slot", name, i)
			}
		}
		for v := range g.In {
			if cap(g.In[v]) != len(g.In[v]) || cap(g.Out[v]) != len(g.Out[v]) {
				t.Fatalf("%s: vertex %d adjacency not capacity-capped", name, v)
			}
		}
		if n := testing.AllocsPerRun(100, func() { g.EdgeDelays() }); n != 0 {
			t.Fatalf("%s: EdgeDelays allocates %v times per call", name, n)
		}
	}
}

// TestSetEdgeDelayCopiesSharedBank: the first edit of a built or restored
// graph leaves the old form, a clone sharing it, and the bank those forms
// alias unchanged bit for bit, while the graph's own bank takes the new
// delay; later edits patch the copy in place.
func TestSetEdgeDelayCopiesSharedBank(t *testing.T) {
	for name, g := range packedGraphs(t) {
		const ei = 5
		shared := g.EdgeDelays()
		sharedWords := viewWords(shared.Data())
		old := g.Edges[ei].Delay
		oldWords := formWords(old)
		cl := g.Clone()

		if err := g.ScaleEdgeDelay(ei, 1.5); err != nil {
			t.Fatal(err)
		}
		bank := g.EdgeDelays()
		if bank == shared {
			t.Fatalf("%s: edit patched the bank the forms alias", name)
		}
		if !reflect.DeepEqual(viewWords(shared.Data()), sharedWords) {
			t.Fatalf("%s: edit changed the shared bank", name)
		}
		if !reflect.DeepEqual(formWords(old), oldWords) {
			t.Fatalf("%s: edit changed the old form", name)
		}
		if cl.Edges[ei].Delay != old || !reflect.DeepEqual(viewWords(cl.EdgeDelays().View(ei)), oldWords) {
			t.Fatalf("%s: edit of the original reached its clone", name)
		}
		if !reflect.DeepEqual(viewWords(bank.View(ei)), formWords(g.Edges[ei].Delay)) {
			t.Fatalf("%s: graph bank does not hold the edited delay", name)
		}
		for i := range g.Edges {
			if i != ei && !reflect.DeepEqual(viewWords(bank.View(i)), viewWords(shared.View(i))) {
				t.Fatalf("%s: copied bank differs at untouched edge %d", name, i)
			}
		}

		if err := g.SetEdgeNominal(ei+1, 42); err != nil {
			t.Fatal(err)
		}
		if g.EdgeDelays() != bank || bank.View(ei+1).Nominal() != 42 {
			t.Fatalf("%s: second edit did not patch the private bank in place", name)
		}
	}
}

// TestPassesWhileClonesEdited runs passes on a built graph while other
// goroutines clone it and edit and analyze the clones; the built graph's
// answer stays bit-identical. Run under -race.
func TestPassesWhileClonesEdited(t *testing.T) {
	g := buildBench(t, "c432", 7)
	ref, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	want := formWords(ref)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				if w%2 == 0 {
					d, err := g.MaxDelayCtx(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(formWords(d), want) {
						t.Error("pass on the built graph moved while clones were edited")
						return
					}
					continue
				}
				cl := g.Clone()
				for ei := it; ei < len(cl.Edges); ei += 17 {
					if err := cl.ScaleEdgeDelay(ei, 1.25); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := cl.MaxDelay(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFromSnapshotChecksBeforeGridModel: a snapshot with a large grid that
// fails a check needing no grid model is refused without rebuilding the
// model (an eigensolve that takes on the order of 100 s at 32x32).
func TestFromSnapshotChecksBeforeGridModel(t *testing.T) {
	// snap is a one-edge graph with the given parameter count and local
	// component count on an nx x ny grid.
	snap := func(params, comps, nx, ny int) *GraphSnapshot {
		s := &GraphSnapshot{
			Globals: 1, Components: comps, NumVerts: 2,
			Edges:  []EdgeSnapshot{{From: 0, To: 1}},
			Delays: make([]byte, 8*(comps+3)),
			Grid:   &GridSnapshot{NX: nx, NY: ny, Pitch: 1, RhoNeighbor: 0.9, RhoFloor: 0.4, Range: 15},
		}
		for p := 0; p < params; p++ {
			s.Params = append(s.Params, ParamSnapshot{Name: fmt.Sprint("p", p), Sigma: 0.1, GlobalShare: 0.5, LocalShare: 0.5})
		}
		return s
	}
	cases := map[string]*GraphSnapshot{
		"blob one slot short": func() *GraphSnapshot {
			s := snap(1, 4, 32, 32)
			s.Delays = s.Delays[:0]
			return s
		}(),
		"edge grid out of range": func() *GraphSnapshot {
			s := snap(1, 4, 32, 32)
			s.Edges[0].Grid = 32 * 32
			return s
		}(),
		"register grid out of range": func() *GraphSnapshot {
			s := snap(1, 4, 32, 32)
			s.Registers = []RegisterSnapshot{{Name: "r", Q: -1, D: 1, ClkEdge: -1, Grid: 32 * 32}}
			return s
		}(),
		"self loop":                    func() *GraphSnapshot { s := snap(1, 4, 32, 32); s.Edges[0].To = 0; return s }(),
		"components not per param":     snap(2, 5, 32, 32),
		"components beyond grid cells": snap(1, 5, 2, 2),
	}
	for name, s := range cases {
		start := time.Now()
		_, err := FromSnapshot(s)
		if err == nil {
			t.Errorf("%s: FromSnapshot accepted an invalid snapshot", name)
		}
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Errorf("%s: refused after %v, want under 100ms", name, el)
		}
	}
}
