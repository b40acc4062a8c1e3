package hier_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/hier"
	"repro/internal/scenario"
	"repro/ssta"
)

// formsIdentical reports whether two forms are bit-for-bit equal.
func formsIdentical(a, b *canon.Form) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Nominal != b.Nominal || a.Rand != b.Rand {
		return false
	}
	for i := range a.Glob {
		if a.Glob[i] != b.Glob[i] {
			return false
		}
	}
	for i := range a.Loc {
		if a.Loc[i] != b.Loc[i] {
			return false
		}
	}
	return true
}

// TestConcurrentAnalyzeAndSweepShareStitch runs AnalyzeCtx and SweepDesign
// concurrently on one design from a cold cache, so they race on the prep
// and the stitched top graph and then share it: every answer must equal
// the DisableCache answer exactly. Run with -race.
func TestConcurrentAnalyzeAndSweepShareStitch(t *testing.T) {
	flow := ssta.DefaultFlow()
	c, err := ssta.Generate(ssta.TopoSpec{Name: "g90", PIs: 10, POs: 5, Gates: 90, Edges: 190, Depth: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, plan, err := flow.Graph(c)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ssta.NewModule("g90", model, plan)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flow.QuadDesign("quad-g90", mod)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scens := []scenario.Scenario{
		{Name: "unit"},
		{Name: "hot", Derate: 1.15},
		{Name: "sigma", GlobSigma: 1.4, LocSigma: 1.2, RandSigma: 0.9},
		{Name: "slow-wires", NetScale: 1.3},
	}
	uncached := hier.AnalyzeOptions{Workers: 1, DisableCache: true}
	refs := map[hier.Mode]*hier.Result{}
	sweepRefs := map[hier.Mode]*scenario.Report{}
	for _, mode := range []hier.Mode{hier.FullCorrelation, hier.GlobalOnly} {
		if refs[mode], err = d.AnalyzeCtx(ctx, mode, uncached); err != nil {
			t.Fatal(err)
		}
		if sweepRefs[mode], err = scenario.SweepDesign(ctx, d, mode, scens, scenario.Options{Workers: 1, Analyze: uncached}); err != nil {
			t.Fatal(err)
		}
	}
	d.InvalidatePrep()

	const goroutines = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mode := hier.FullCorrelation
			if k%4 >= 2 {
				mode = hier.GlobalOnly
			}
			opt := hier.AnalyzeOptions{Workers: 1 + k%3}
			if k%2 == 0 {
				got, err := d.AnalyzeCtx(ctx, mode, opt)
				if err != nil {
					errCh <- err
					return
				}
				if !formsIdentical(got.Delay, refs[mode].Delay) {
					errCh <- fmt.Errorf("goroutine %d: %v analysis differs from the uncached one", k, mode)
				}
				return
			}
			rep, err := scenario.SweepDesign(ctx, d, mode, scens, scenario.Options{Workers: 2, Analyze: opt})
			if err != nil {
				errCh <- err
				return
			}
			for i, r := range rep.Results {
				if r.Err != nil || !formsIdentical(r.Delay, sweepRefs[mode].Results[i].Delay) {
					errCh <- fmt.Errorf("goroutine %d: %v scenario %q differs from the uncached sweep (err %v)", k, mode, r.Name, r.Err)
				}
			}
		}(k)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
