package hier

import (
	"context"
	"testing"
)

// exactDelay requires got's delay and output arrivals to equal want's
// exactly — the cache must never change a number.
func exactDelay(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if d := formsAgree(got.Delay, want.Delay); d != 0 {
		t.Fatalf("%s: delay differs from the uncached analysis by %g", label, d)
	}
	for k := range want.OutputArrivals {
		if d := formsAgree(got.OutputArrivals[k], want.OutputArrivals[k]); d != 0 {
			t.Fatalf("%s: output %d arrival differs from the uncached analysis by %g", label, k, d)
		}
	}
}

// TestStitchCacheContract pins the stitch cache: repeated Stitch/AnalyzeCtx
// calls share one top graph in distinct Results, every mutation buildTop
// reads rebuilds it, and every cached answer equals the uncached one
// exactly.
func TestStitchCacheContract(t *testing.T) {
	d, mod, alt := sessionDesign(t)
	ctx := context.Background()
	opt := AnalyzeOptions{Workers: 1}

	// stitch returns the design's current top graph and checks that an
	// immediate repeat (Stitch and AnalyzeCtx) reuses it in a fresh Result
	// whose analysis equals the uncached path.
	stitch := func(label string) *Result {
		t.Helper()
		first, err := d.Stitch(ctx, FullCorrelation, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		again, err := d.Stitch(ctx, FullCorrelation, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		an, err := d.AnalyzeCtx(ctx, FullCorrelation, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if again == first || an == first {
			t.Fatalf("%s: cache hit returned the same *Result", label)
		}
		if again.Graph != first.Graph || an.Graph != first.Graph {
			t.Fatalf("%s: repeated Stitch/AnalyzeCtx re-stitched the top graph", label)
		}
		ref, err := d.AnalyzeCtx(ctx, FullCorrelation, AnalyzeOptions{Workers: 1, DisableCache: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ref.Graph == first.Graph {
			t.Fatalf("%s: DisableCache reused the cached top graph", label)
		}
		exactDelay(t, label, an, ref)
		return first
	}
	rebuilt := func(label string, prev *Result) *Result {
		t.Helper()
		cur := stitch(label)
		if cur.Graph == prev.Graph {
			t.Fatalf("%s: the cached top graph survived the change", label)
		}
		return cur
	}

	h0, m0 := StitchCacheStats()
	cur := stitch("cold")
	if h, m := StitchCacheStats(); m-m0 != 1 || h-h0 != 2 {
		t.Fatalf("cold stitch + two repeats: %d hits, %d misses; want 2, 1", h-h0, m-m0)
	}

	for i := range d.Nets {
		d.Nets[i].Delay = 25
	}
	cur = rebuilt("net delay", cur)

	d.PrimaryOutputs = d.PrimaryOutputs[:len(d.PrimaryOutputs)-1]
	cur = rebuilt("primary outputs", cur)
	d.PrimaryInputs = d.PrimaryInputs[:len(d.PrimaryInputs)-1]
	cur = rebuilt("primary inputs", cur)

	slews := mod.Model.Graph.OutputPortSlews
	orig := slews[0]
	slews[0] = orig + 40
	cur = rebuilt("in-place slew edit", cur)
	slews[0] = orig
	cur = rebuilt("slew restored", cur)

	slopes := mod.Model.Graph.InputSlewSlopes
	orig = slopes[0]
	slopes[0] = orig * 2
	cur = rebuilt("in-place slew-slope edit", cur)
	slopes[0] = orig

	d.Instances[1].Module = alt
	cur = rebuilt("module swap", cur)
	d.Instances[1].Module = mod
	cur = rebuilt("module swap back", cur)

	d.InvalidatePrep()
	cur = rebuilt("InvalidatePrep", cur)

	// GlobalOnly keeps its own slot: stitching it does not evict the
	// FullCorrelation top.
	if _, err := d.Stitch(ctx, GlobalOnly, opt); err != nil {
		t.Fatal(err)
	}
	res, err := d.Stitch(ctx, FullCorrelation, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != cur.Graph {
		t.Fatal("stitching the other mode evicted the cached top graph")
	}
}
