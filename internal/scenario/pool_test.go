package scenario_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/timing"
	"repro/ssta"
)

// TestSweepDirtyPooledBank: pass arenas come from the propagation slab
// pool unzeroed, and the scaled walks must overwrite every slot they read.
// Poison a batch of pooled pass slabs of the graph's size, then sweep a
// graph carrying a RemoveEdge tombstone: every result must still equal an
// analysis of the explicitly transformed graph bit for bit.
func TestSweepDirtyPooledBank(t *testing.T) {
	g := testGraph(t, 3)
	if err := g.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	// Several slabs, so the poisoned ones also land in the pool's shared
	// (stealable) queue and not only in one P's private slot.
	poisoned := make([]*timing.Pass, 16)
	for i := range poisoned {
		poisoned[i] = g.AcquirePass()
		for v := 0; v <= g.NumVerts; v++ {
			view := poisoned[i].At(v)
			for k := range view {
				view[k] = math.NaN()
			}
		}
	}
	for _, p := range poisoned {
		p.Release()
	}
	scens := testScenarios()
	rep, err := scenario.SweepGraph(context.Background(), g, scens, scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scens {
		r := rep.Results[i]
		if r.Err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, r.Err)
		}
		want, err := sc.TransformGraph(g).MaxDelayCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(r.Delay, want) {
			t.Fatalf("scenario %q over poisoned pooled arenas differs from the transformed graph", sc.Name)
		}
	}
}

// TestWarmSweepDesignAllocs is the allocation fence of the warm sweep
// path: with the stitched top cached on the design, the pass arenas and
// per-scenario edge factors pooled, and no scaled delay bank, an
// 8-scenario sweep of quad-c1355 allocates only per-scenario results —
// about 5 MB/op when every sweep re-stitched and allocated a fresh bank
// per scenario.
func TestWarmSweepDesignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	flow := ssta.DefaultFlow()
	g, plan, err := flow.BenchGraph("c1355", 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ssta.NewModule("c1355", model, plan)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flow.QuadDesign("quad-c1355", mod)
	if err != nil {
		t.Fatal(err)
	}
	scens := make([]scenario.Scenario, 8)
	for i := range scens {
		scens[i] = scenario.Scenario{
			Name:   fmt.Sprintf("s%d", i),
			Derate: 1 + 0.01*float64(i+1), LocSigma: 1.1, RandSigma: 0.9,
		}
	}
	ctx := context.Background()
	sweep := func() {
		rep, err := scenario.SweepDesign(ctx, d, ssta.FullCorrelation, scens, scenario.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != len(scens) {
			t.Fatalf("completed %d of %d scenarios", rep.Completed, len(scens))
		}
	}
	for i := 0; i < 3; i++ {
		sweep() // stitch once, fill the slab and factor pools
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm 8-scenario quad-c1355 sweep: %.1f KiB/op", perOp/1024)
	if perOp > 256<<10 {
		t.Fatalf("warm sweep allocates %.1f KiB/op, fence is 256 KiB", perOp/1024)
	}
}
