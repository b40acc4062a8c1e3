package timing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/canon"
)

// --- pointer-based reference implementations -------------------------------
//
// These are the pre-arena propagation loops, kept verbatim as the golden
// reference the flat-bank engine is checked against (1e-12).

func refArrivalFrom(g *Graph, sources []int) ([]*canon.Form, error) {
	order, err := g.Order()
	if err != nil {
		return nil, err
	}
	arr := make([]*canon.Form, g.NumVerts)
	for _, s := range sources {
		if s < 0 || s >= g.NumVerts {
			return nil, fmt.Errorf("timing: source vertex %d out of range", s)
		}
		arr[s] = g.Space.Const(0)
	}
	scratch := g.Space.NewForm()
	for _, v := range order {
		av := arr[v]
		if av == nil {
			continue
		}
		for _, ei := range g.Out[v] {
			e := &g.Edges[ei]
			canon.AddInto(scratch, av, e.Delay)
			if cur := arr[e.To]; cur == nil {
				arr[e.To] = scratch.Clone()
			} else {
				canon.MaxInto(cur, cur, scratch)
			}
		}
	}
	return arr, nil
}

func refDelayToOutput(g *Graph, out int) ([]*canon.Form, error) {
	order, err := g.Order()
	if err != nil {
		return nil, err
	}
	req := make([]*canon.Form, g.NumVerts)
	req[out] = g.Space.Const(0)
	scratch := g.Space.NewForm()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, ei := range g.Out[v] {
			e := &g.Edges[ei]
			rt := req[e.To]
			if rt == nil {
				continue
			}
			canon.AddInto(scratch, rt, e.Delay)
			if cur := req[v]; cur == nil {
				req[v] = scratch.Clone()
			} else {
				canon.MaxInto(cur, cur, scratch)
			}
		}
	}
	return req, nil
}

// passArrivals runs Pass.Arrivals from the sources and materializes the
// pass as pointer forms (nil where unreached).
func passArrivals(g *Graph, sources ...int) ([]*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(sources...); err != nil {
		return nil, err
	}
	return p.Forms(), nil
}

// passRequired runs Pass.Required toward the outputs and materializes the
// pass as pointer forms (nil where the outputs are unreachable).
func passRequired(g *Graph, outs ...int) ([]*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Required(outs...); err != nil {
		return nil, err
	}
	return p.Forms(), nil
}

const passTol = 1e-12

func formDiff(a, b *canon.Form) float64 {
	rel := func(x, y float64) float64 {
		d := math.Abs(x - y)
		s := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return d / s
	}
	d := rel(a.Nominal, b.Nominal)
	for i := range a.Glob {
		if r := rel(a.Glob[i], b.Glob[i]); r > d {
			d = r
		}
	}
	for i := range a.Loc {
		if r := rel(a.Loc[i], b.Loc[i]); r > d {
			d = r
		}
	}
	if r := rel(a.Rand, b.Rand); r > d {
		d = r
	}
	return d
}

func compareFormSlices(t *testing.T, what string, got, want []*canon.Form) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for v := range got {
		switch {
		case got[v] == nil && want[v] == nil:
		case got[v] == nil || want[v] == nil:
			t.Fatalf("%s: vertex %d reachability mismatch (got %v, want %v)",
				what, v, got[v], want[v])
		default:
			if d := formDiff(got[v], want[v]); d > passTol {
				t.Fatalf("%s: vertex %d differs by %g (> %g)", what, v, d, passTol)
			}
		}
	}
}

// TestPassMatchesPointerReferenceGolden checks the arena engine against the
// pointer-based reference on real generated circuits: forward exclusive
// passes per input, the all-inputs pass, and every backward pass.
func TestPassMatchesPointerReferenceGolden(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		g := buildBench(t, name, 1)
		t.Run(name, func(t *testing.T) {
			arrAll, err := g.ArrivalAll()
			if err != nil {
				t.Fatal(err)
			}
			refAll, err := refArrivalFrom(g, g.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			compareFormSlices(t, "ArrivalAll", arrAll, refAll)

			for _, in := range g.Inputs[:3] {
				got, err := passArrivals(g, in)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refArrivalFrom(g, []int{in})
				if err != nil {
					t.Fatal(err)
				}
				compareFormSlices(t, fmt.Sprintf("Arrivals(%d)", in), got, want)
			}
			for _, out := range g.Outputs {
				got, err := passRequired(g, out)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refDelayToOutput(g, out)
				if err != nil {
					t.Fatal(err)
				}
				compareFormSlices(t, fmt.Sprintf("Required(%d)", out), got, want)
			}

			// MaxDelay folds in the arena; the reference folds pointer forms.
			got, err := g.MaxDelay()
			if err != nil {
				t.Fatal(err)
			}
			var forms []*canon.Form
			for _, o := range g.Outputs {
				if refAll[o] != nil {
					forms = append(forms, refAll[o])
				}
			}
			want, err := canon.MaxAll(forms)
			if err != nil {
				t.Fatal(err)
			}
			if d := formDiff(got, want); d > passTol {
				t.Fatalf("MaxDelay differs by %g", d)
			}
		})
	}
}

// TestAllPairsMatchesReference checks the pooled-arena all-pairs matrix
// against per-input reference passes.
func TestAllPairsMatchesReference(t *testing.T) {
	g := buildBench(t, "c432", 1)
	ap, err := g.AllPairsDelays(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range g.Inputs {
		want, err := refArrivalFrom(g, []int{in})
		if err != nil {
			t.Fatal(err)
		}
		for j, o := range g.Outputs {
			switch {
			case ap.M[i][j] == nil && want[o] == nil:
			case ap.M[i][j] == nil || want[o] == nil:
				t.Fatalf("pair (%d,%d): reachability mismatch", i, j)
			default:
				if d := formDiff(ap.M[i][j], want[o]); d > passTol {
					t.Fatalf("pair (%d,%d) differs by %g", i, j, d)
				}
			}
		}
	}
}

// TestArrivalPassAllocs is the tentpole's allocation contract: once the
// pool is warm, a full exclusive forward pass in an arena performs no
// per-vertex allocations (the pre-arena engine allocated one form clone per
// reached vertex — O(vertices) per pass).
func TestArrivalPassAllocs(t *testing.T) {
	g := buildBench(t, "c880", 1)
	g.EdgeDelays() // exclude the one-time flat delay-bank build
	in := g.Inputs[0]
	// Warm the pool.
	p := g.AcquirePass()
	if err := p.Arrivals(in); err != nil {
		t.Fatal(err)
	}
	p.Release()
	allocs := testing.AllocsPerRun(20, func() {
		p := g.AcquirePass()
		if err := p.Arrivals(in); err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	// O(1): the occasional sync.Pool miss under GC, never O(vertices).
	if allocs > 4 {
		t.Fatalf("Arrivals pass allocates %.0f objects/run, want O(1) (<=4); graph has %d vertices",
			allocs, g.NumVerts)
	}
	allocs = testing.AllocsPerRun(20, func() {
		p := g.AcquirePass()
		if err := p.Required(g.Outputs[0]); err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	if allocs > 4 {
		t.Fatalf("Required pass allocates %.0f objects/run, want O(1) (<=4)", allocs)
	}
}

// TestMaxDelayAllocs pins the full-circuit delay query to O(1) allocations
// beyond the returned form.
func TestMaxDelayAllocs(t *testing.T) {
	g := buildBench(t, "c432", 1)
	if _, err := g.MaxDelay(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.MaxDelay(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("MaxDelay allocates %.0f objects/run, want O(1) (<=8)", allocs)
	}
}

// TestPassSourceValidation mirrors the pointer API's range errors.
func TestPassSourceValidation(t *testing.T) {
	g := buildC17(t)
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(-1); err == nil {
		t.Fatal("Arrivals(-1) did not fail")
	}
	if err := p.Arrivals(g.NumVerts); err == nil {
		t.Fatal("Arrivals(NumVerts) did not fail")
	}
	if err := p.Required(-1); err == nil {
		t.Fatal("Required(-1) did not fail")
	}
	if err := p.Required(g.NumVerts); err == nil {
		t.Fatal("Required(NumVerts) did not fail")
	}
}

// TestConcurrentPassesOnSharedGraph hammers a freshly built graph (no
// cached order, no delay bank) from several goroutines at once, covering
// the lazy Order/EdgeDelays publication and the global slab pool under the
// race detector.
func TestConcurrentPassesOnSharedGraph(t *testing.T) {
	g := buildBench(t, "c432", 1)
	want, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildBench(t, "c432", 1) // same circuit, cold caches
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				got, err := g2.MaxDelay()
				if err != nil {
					errs <- err
					return
				}
				if d := formDiff(got, want); d > passTol {
					errs <- fmt.Errorf("worker %d: concurrent MaxDelay differs by %g", w, d)
					return
				}
				p := g2.AcquirePass()
				if err := p.Required(g2.Outputs[w%len(g2.Outputs)]); err != nil {
					errs <- err
					return
				}
				p.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEdgeDelaysInvalidation: the flat delay bank follows graph edits.
func TestEdgeDelaysInvalidation(t *testing.T) {
	space := canon.Space{Globals: 1, Components: 1}
	g := NewGraph(space, 3, nil)
	if _, err := g.AddEdge(0, 1, space.Const(5), nil, 0); err != nil {
		t.Fatal(err)
	}
	db := g.EdgeDelays()
	if db.Cap() != 1 || db.View(0).Nominal() != 5 {
		t.Fatalf("delay bank: %+v", db)
	}
	if _, err := g.AddEdge(1, 2, space.Const(7), nil, 0); err != nil {
		t.Fatal(err)
	}
	db = g.EdgeDelays()
	if db.Cap() != 2 || db.View(1).Nominal() != 7 {
		t.Fatal("delay bank not rebuilt after AddEdge")
	}
	// In-place mutation needs the explicit invalidation hook.
	g.Edges[0].Delay.Nominal = 9
	g.InvalidateDelays()
	if got := g.EdgeDelays().View(0).Nominal(); got != 9 {
		t.Fatalf("delay bank after InvalidateDelays: %g, want 9", got)
	}
}

// TestMaxDelayCtxCancelled: a cancelled context stops the forward pass
// between vertices instead of running it to completion.
func TestMaxDelayCtxCancelled(t *testing.T) {
	space := canon.Space{Globals: 1, Components: 1}
	const n = 600 // > ctxCheckStride so mid-pass polls are exercised
	g := NewGraph(space, n, nil)
	for v := 0; v+1 < n; v++ {
		if _, err := g.AddEdge(v, v+1, space.Const(1), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetIO([]int{0}, []int{n - 1}, []string{"a"}, []string{"z"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.MaxDelayCtx(context.Background()); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.MaxDelayCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}
