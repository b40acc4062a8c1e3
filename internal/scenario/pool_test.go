package scenario_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/canon"
	"repro/internal/scenario"
	"repro/internal/timing"
	"repro/ssta"
)

// TestSweepDirtyPooledBank: scenario banks come from the propagation slab
// pool unzeroed, so the rescale must overwrite every slot it hands to the
// pass. Poison a batch of pooled slabs of the bank's size, then sweep a
// graph carrying a RemoveEdge tombstone: every result must still match an
// explicitly transformed graph at 1e-9.
func TestSweepDirtyPooledBank(t *testing.T) {
	g := testGraph(t, 3)
	if err := g.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	// Several slabs, so the poisoned ones also land in the pool's shared
	// (stealable) queue and not only in one P's private slot.
	poisoned := make([]*canon.Bank, 16)
	for i := range poisoned {
		poisoned[i] = timing.AcquireBank(g.Space, len(g.Edges))
		data := poisoned[i].Data()
		for k := range data {
			data[k] = math.NaN()
		}
	}
	for _, b := range poisoned {
		timing.ReleaseBank(b)
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
		if d := formDiff(r.Delay, want); !(d <= 1e-9) {
			t.Fatalf("scenario %q over a poisoned pooled bank differs from the transformed graph by %g", sc.Name, d)
		}
	}
}

// TestWarmSweepDesignAllocs is the allocation fence of the warm sweep
// path: with the stitched top cached on the design and the per-scenario
// banks pooled, an 8-scenario sweep of quad-c1355 allocates only
// per-scenario results — about 5 MB/op when every sweep re-stitched and
// allocated a fresh bank per scenario.
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
		sweep() // stitch once, fill the slab pool
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
