// Benchmarks regenerating the paper's evaluation artifacts (see DESIGN.md
// experiment index):
//
//	BenchmarkTable1Extract/*   — Table I extraction runtime column (E1)
//	BenchmarkFig6Criticality   — Fig. 6 criticality engine on c7552 (E2)
//	BenchmarkFig7HierAnalysis  — Fig. 7 proposed hierarchical analysis (E3)
//	BenchmarkFig7GlobalOnly    — Fig. 7 baseline mode (E3)
//	BenchmarkFig7MonteCarlo    — Fig. 7 Monte Carlo ground truth (E3)
//	BenchmarkExtractDelta/*    — delta ablation (E4)
//	BenchmarkReplacement       — eq. 19 variable replacement (E5)
//	BenchmarkPropagate/*       — flat SSTA propagation (substrate)
//	BenchmarkAnalyzeStream     — flat analysis over the analyze-mix graphs
//	                             in random order (cold-cache substrate)
//	BenchmarkGraphFootprint/*  — live heap bytes and objects a cached graph
//	                             set holds (substrate)
//	BenchmarkSum/BenchmarkMax  — canonical-form micro-operations (substrate)
//	BenchmarkViewSum/ViewMax   — fused flat-view kernels (arena substrate)
//	BenchmarkArrivalPass/*     — pooled-arena exclusive passes (run with
//	                             -benchmem: allocs/op must stay O(1))
//
// The cmd/table1, cmd/fig6 and cmd/fig7 binaries print the corresponding
// tables/series; these benches measure the runtimes.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/ssta"
)

// benchGraph builds the timing graph for a named benchmark once.
func benchGraph(b *testing.B, name string) *ssta.Graph {
	b.Helper()
	g, _, err := ssta.DefaultFlow().BenchGraph(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkSum(b *testing.B) {
	// Dimensions of a c7552-scale analysis: 3 globals, 3x36 components.
	space := canon.Space{Globals: 3, Components: 108}
	rng := rand.New(rand.NewSource(1))
	x, y := space.NewForm(), space.NewForm()
	for i := range x.Loc {
		x.Loc[i] = rng.NormFloat64()
		y.Loc[i] = rng.NormFloat64()
	}
	x.Rand, y.Rand = 1, 2
	dst := space.NewForm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canon.AddInto(dst, x, y)
	}
}

func BenchmarkMax(b *testing.B) {
	space := canon.Space{Globals: 3, Components: 108}
	rng := rand.New(rand.NewSource(1))
	x, y := space.NewForm(), space.NewForm()
	x.Nominal, y.Nominal = 100, 101
	for i := range x.Loc {
		x.Loc[i] = rng.NormFloat64()
		y.Loc[i] = rng.NormFloat64()
	}
	x.Rand, y.Rand = 1, 2
	dst := space.NewForm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canon.MaxInto(dst, x, y)
	}
}

func BenchmarkViewSum(b *testing.B) {
	space := canon.Space{Globals: 3, Components: 108}
	rng := rand.New(rand.NewSource(1))
	bank := canon.NewBank(space, 3)
	x, y, dst := bank.Take(), bank.Take(), bank.Take()
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canon.AddViews(dst, x, y)
	}
}

func BenchmarkViewMax(b *testing.B) {
	space := canon.Space{Globals: 3, Components: 108}
	rng := rand.New(rand.NewSource(1))
	bank := canon.NewBank(space, 3)
	x, y, dst := bank.Take(), bank.Take(), bank.Take()
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	x.SetNominal(100)
	y.SetNominal(101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canon.MaxViews(dst, x, y)
	}
}

// BenchmarkArrivalPass measures one pooled-arena exclusive forward pass —
// the unit of work the all-pairs extraction scheme repeats per input. With
// -benchmem the allocs/op column is the tentpole contract: O(1), not
// O(vertices).
func BenchmarkArrivalPass(b *testing.B) {
	for _, name := range []string{"c432", "c1908", "c7552"} {
		g := benchGraph(b, name)
		in := g.Inputs[0]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := g.AcquirePass()
				if err := p.Arrivals(in); err != nil {
					b.Fatal(err)
				}
				p.Release()
			}
		})
	}
}

func BenchmarkPropagate(b *testing.B) {
	for _, name := range []string{"c432", "c1908", "c7552"} {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.ArrivalAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeStream measures flat analysis the way sstad's analyze
// traffic exercises it: one AnalyzeCtx (late walk, plus the early walk and
// slack on clocked graphs) per op, over a stream drawn from the 36 graphs of
// the analyze-mix load (c432-c7552 x seeds 1-3 x flat or clocked) in a
// seeded random order, a quarter of them clocked. Consecutive ops hit
// different graphs, so each walk starts with caches about as cold as in the
// daemon, unlike BenchmarkPropagate, which repeats one graph.
func BenchmarkAnalyzeStream(b *testing.B) {
	flow := ssta.DefaultFlow()
	benches := []string{"c432", "c880", "c1355", "c1908", "c3540", "c7552"}
	const seeds = 3
	var flat, clocked []*ssta.Graph
	for _, name := range benches {
		for seed := int64(1); seed <= seeds; seed++ {
			g, _, err := flow.BenchGraph(name, seed)
			if err != nil {
				b.Fatal(err)
			}
			gc, _, err := flow.ClockedBenchGraph(name, seed)
			if err != nil {
				b.Fatal(err)
			}
			flat, clocked = append(flat, g), append(clocked, gc)
		}
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := flat[rng.Intn(len(flat))]
		if rng.Intn(4) == 0 {
			g = clocked[rng.Intn(len(clocked))]
		}
		if _, _, err := g.AnalyzeCtx(ctx, nil, ssta.ClockSpec{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphFootprint reports what a graph cache holds: the live heap
// bytes ("live-MiB") and heap objects ("live-objects") left after full
// collections, for one built c7552 graph and for the analyze-mix warm-up set
// (the 36 graphs of BenchmarkAnalyzeStream plus the 12 models extracted
// from the flat c432-c1908 ones). Every graph is analyzed once, as a
// daemon's first request for it does, so state built on first use counts.
// Each op builds the set with a fresh flow, so no extraction is served from
// a cache; run it with -benchtime 1x.
func BenchmarkGraphFootprint(b *testing.B) {
	ctx := context.Background()
	analyzed := func(b *testing.B, g *ssta.Graph, err error) *ssta.Graph {
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := g.AnalyzeCtx(ctx, nil, ssta.ClockSpec{}, nil); err != nil {
			b.Fatal(err)
		}
		return g
	}
	sets := []struct {
		name  string
		build func(b *testing.B) []any
	}{
		{"c7552", func(b *testing.B) []any {
			g, _, err := ssta.DefaultFlow().BenchGraph("c7552", 1)
			return []any{analyzed(b, g, err)}
		}},
		{"analyze-mix", func(b *testing.B) []any {
			flow := ssta.DefaultFlow()
			var keep []any
			for _, name := range []string{"c432", "c880", "c1355", "c1908", "c3540", "c7552"} {
				for seed := int64(1); seed <= 3; seed++ {
					g, _, err := flow.BenchGraph(name, seed)
					g = analyzed(b, g, err)
					gc, _, err := flow.ClockedBenchGraph(name, seed)
					keep = append(keep, g, analyzed(b, gc, err))
					if name == "c3540" || name == "c7552" {
						continue
					}
					m, err := flow.Extract(g, ssta.ExtractOptions{})
					if err != nil {
						b.Fatal(err)
					}
					keep = append(keep, m)
				}
			}
			return keep
		}},
	}
	live := func() (bytes, objects uint64) {
		runtime.GC()
		runtime.GC() // the second empties the pass pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.HeapObjects
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bytes0, objects0 := live()
				keep := set.build(b)
				bytes1, objects1 := live()
				runtime.KeepAlive(keep)
				b.ReportMetric(float64(bytes1-bytes0)/(1<<20), "live-MiB")
				b.ReportMetric(float64(objects1-objects0), "live-objects")
			}
		})
	}
}

// BenchmarkTable1Extract measures the full extraction pipeline per
// benchmark — the T column of Table I.
func BenchmarkTable1Extract(b *testing.B) {
	for _, spec := range ssta.ISCAS85Specs {
		g := benchGraph(b, spec.Name)
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.Extract(g, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.Stats.EdgesModel), "edges")
			}
		})
	}
}

// BenchmarkFig6Criticality measures the all-pairs criticality engine on
// c7552 (the computation behind Fig. 6).
func BenchmarkFig6Criticality(b *testing.B) {
	g := benchGraph(b, "c7552")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EdgeCriticalities(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6CriticalityPruned is the same computation under the
// delta-threshold screen at the paper's default delta — the mode the
// extraction pipeline actually runs. The kept metric (edges at or above
// delta) is bit-identical to the exact engine's; screened counts the
// boundary evaluations the threshold pruned.
func BenchmarkFig6CriticalityPruned(b *testing.B) {
	g := benchGraph(b, "c7552")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.EdgeCriticalitiesOpt(context.Background(), g,
			core.CriticalityOptions{ScreenDelta: core.DefaultDelta})
		if err != nil {
			b.Fatal(err)
		}
		kept := 0
		for _, c := range res.Cm {
			if c >= core.DefaultDelta {
				kept++
			}
		}
		b.ReportMetric(float64(kept), "kept")
		b.ReportMetric(float64(res.ScreenedBoundaries)/float64(i+1), "screened")
	}
}

// BenchmarkIncrementalCriticality measures the single-edit criticality ECO:
// scale one edge's delay, then bring the all-pairs criticality back up to
// date. "scratch" reruns the full screened engine; "incremental" refreshes
// an IncrementalCriticality tracker, which re-derives only the input rows
// the edit can affect (results are bit-identical; tests lock that in). The
// c1908 pair is the CI smoke size; c7552 is the headline size.
func BenchmarkIncrementalCriticality(b *testing.B) {
	for _, name := range []string{"c1908", "c7552"} {
		base := benchGraph(b, name)
		scales := [2]float64{2, 0.5} // exact inverses: the graph never drifts
		// The affected-input set of an edit is the inputs that reach the
		// edited edge, so a local ECO next to one primary input re-derives
		// a handful of rows where from-scratch re-derives them all. (An
		// output-adjacent edit is the adversarial case: every input
		// reaches it and the refresh degrades to a full recompute.)
		edge := -1
		for e := range base.Edges {
			if base.Edges[e].From == base.Inputs[0] {
				edge = e
				break
			}
		}
		if edge < 0 {
			b.Fatalf("%s: no edge leaving input 0", name)
		}
		opt := core.CriticalityOptions{ScreenDelta: core.DefaultDelta}
		b.Run(name+"/scratch", func(b *testing.B) {
			g := base.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ScaleEdgeDelay(edge, scales[i%2]); err != nil {
					b.Fatal(err)
				}
				if _, err := core.EdgeCriticalitiesOpt(context.Background(), g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/incremental", func(b *testing.B) {
			g := base.Clone()
			inc, err := g.NewIncremental()
			if err != nil {
				b.Fatal(err)
			}
			ic, err := core.NewIncrementalCriticality(context.Background(), inc, opt)
			if err != nil {
				b.Fatal(err)
			}
			var rows int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ScaleEdgeDelay(edge, scales[i%2]); err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Update(context.Background()); err != nil {
					b.Fatal(err)
				}
				_, st, err := ic.Refresh(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				rows += st.Inputs
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			b.ReportMetric(float64(len(base.Inputs)), "inputs")
		})
	}
}

// fig7Design builds the quad-c6288 design once (extraction included in
// setup, not measurement).
func fig7Design(b *testing.B) *ssta.Design {
	b.Helper()
	flow := ssta.DefaultFlow()
	g, plan, err := flow.BenchGraph("c6288", 1)
	if err != nil {
		b.Fatal(err)
	}
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := ssta.NewModule("c6288", model, plan)
	if err != nil {
		b.Fatal(err)
	}
	mod.Orig = g
	d, err := flow.QuadDesign("quad", mod)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkFig7HierAnalysis(b *testing.B) {
	d := fig7Design(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Analyze(ssta.FullCorrelation); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7GlobalOnly(b *testing.B) {
	d := fig7Design(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Analyze(ssta.GlobalOnly); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MonteCarlo(b *testing.B) {
	d := fig7Design(b)
	flat, _, err := d.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	const perIter = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.MaxDelaySamples(flat, mc.Config{Samples: perIter, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perIter), "ns/sample")
}

// BenchmarkExtractDelta is the threshold ablation (E4): extraction cost and
// model size across deltas.
func BenchmarkExtractDelta(b *testing.B) {
	g := benchGraph(b, "c880")
	for _, delta := range []float64{0.01, 0.05, 0.20} {
		b.Run(fmt.Sprintf("delta=%.2f", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.Extract(g, core.Options{Delta: delta})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.Stats.EdgesModel), "edges")
			}
		})
	}
}

// BenchmarkReplacement measures the eq. 19 variable replacement and design
// stitching in isolation (E5), without propagation.
func BenchmarkReplacement(b *testing.B) {
	d := fig7Design(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Flatten(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeParallel measures the hierarchical analysis engine at
// fixed worker counts on the multi-instance quad design, with the
// geometry/PCA prep and stitch caches warm so the measured work is the
// design-level propagation.
func BenchmarkAnalyzeParallel(b *testing.B) {
	d := fig7Design(b)
	// Warm the prep cache so every measured iteration is a cache hit.
	if _, err := d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 0}); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dworkers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzePrepCache quantifies the model-cache win: cold recomputes
// the design partition, PCA and replacement matrices on every analysis
// (the seed behavior), warm reuses the cached prep and stitched top graph.
func BenchmarkAnalyzePrepCache(b *testing.B) {
	d := fig7Design(b)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1, DisableCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractCacheHit measures the memoized extraction path: after
// the first call, Flow.Extract is a map lookup regardless of module size.
func BenchmarkExtractCacheHit(b *testing.B) {
	flow := ssta.DefaultFlow()
	g, _, err := flow.BenchGraph("c1908", 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := flow.Extract(g, ssta.ExtractOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Extract(g, ssta.ExtractOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeBatch measures multi-circuit sweep throughput through
// the batch scheduler at different widths.
func BenchmarkAnalyzeBatch(b *testing.B) {
	flow := ssta.DefaultFlow()
	items := []ssta.BatchItem{
		{Bench: "c432", Seed: 1},
		{Bench: "c499", Seed: 1},
		{Bench: "c880", Seed: 1},
		{Bench: "c1355", Seed: 1},
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dworkers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range flow.AnalyzeBatch(items, ssta.BatchOptions{Workers: workers}) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkIncrementalEdit measures one single-edge ECO cycle — edit, then
// re-analyze — on the largest ISCAS-like benchmark. "full" re-runs a
// complete forward pass per edit (the stateless pre-session behavior);
// "incremental" maintains persistent session state and re-propagates only
// the edited edge's fan-out cone. The recomputed-vertices metric is the
// structural side of the win; the ns/op ratio is the latency side.
func BenchmarkIncrementalEdit(b *testing.B) {
	base := benchGraph(b, "c7552")
	scales := [2]float64{2, 0.5} // exact inverses: the graph never drifts
	// The win is proportional to the edited edge's fan-out cone, so both
	// ends of the spectrum are measured: "local" is a late-stage fix right
	// before the outputs (the common ECO — tiny cone), "midcone" an edit in
	// the thick of the graph (cone ~25% of all vertices on this benchmark).
	for _, tc := range []struct {
		name string
		edge int
	}{
		{"local", len(base.Edges) - 1},
		{"midcone", len(base.Edges) / 2},
	} {
		b.Run(tc.name+"/full", func(b *testing.B) {
			g := base.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ScaleEdgeDelay(tc.edge, scales[i%2]); err != nil {
					b.Fatal(err)
				}
				if _, err := g.MaxDelay(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/incremental", func(b *testing.B) {
			g := base.Clone()
			inc, err := g.NewIncremental()
			if err != nil {
				b.Fatal(err)
			}
			var recomputed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ScaleEdgeDelay(tc.edge, scales[i%2]); err != nil {
					b.Fatal(err)
				}
				st, err := inc.Update(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inc.MaxDelay(); err != nil {
					b.Fatal(err)
				}
				recomputed += st.Forward
			}
			b.ReportMetric(float64(recomputed)/float64(b.N), "reverts/op")
			b.ReportMetric(float64(base.NumVerts), "verts")
		})
	}
}

// BenchmarkSessionSwapModule measures the hierarchical ECO: swapping one
// instance of the quad design between two characterizations of its module
// (extracted at different reduction thresholds — same ports, different
// model) through a design session (one instance re-rewritten, the top
// recommitted, full re-propagation) versus a from-scratch Analyze of an equivalently
// mutated design.
func BenchmarkSessionSwapModule(b *testing.B) {
	flow := ssta.DefaultFlow()
	g, plan, err := flow.BenchGraph("c1355", 1)
	if err != nil {
		b.Fatal(err)
	}
	mkMod := func(delta float64) *ssta.Module {
		model, err := flow.Extract(g, ssta.ExtractOptions{Delta: delta})
		if err != nil {
			b.Fatal(err)
		}
		mod, err := ssta.NewModule("c1355", model, plan)
		if err != nil {
			b.Fatal(err)
		}
		return mod
	}
	mods := [2]*ssta.Module{mkMod(0.05), mkMod(0.08)}
	d, err := flow.QuadDesign("quad", mods[0])
	if err != nil {
		b.Fatal(err)
	}

	b.Run("analyze", func(b *testing.B) {
		mirror := d.CopyStructure()
		for i := 0; i < b.N; i++ {
			mirror.Instances[1].Module = mods[(i+1)%2]
			if _, err := mirror.Analyze(ssta.FullCorrelation); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		sess, err := flow.NewDesignSession(context.Background(), d, ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Apply(context.Background(), []ssta.Edit{
				{Op: ssta.EditSwapModule, Instance: "B", Module: mods[(i+1)%2]},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepScenarios builds the 8-scenario MCMM set of the sweep benchmark:
// derates, class scales and sigma multipliers — all swap-free, so every
// scenario shares one stitch.
func sweepScenarios() []ssta.Scenario {
	return []ssta.Scenario{
		{Name: "unit"},
		{Name: "hot", Derate: 1.15},
		{Name: "cold", Derate: 0.92},
		{Name: "aged", CellScale: 1.08},
		{Name: "slow-wires", NetScale: 1.4},
		{Name: "sigma-up", GlobSigma: 1.5, LocSigma: 1.25},
		{Name: "sigma-down", RandSigma: 0.8},
		{Name: "combo", Derate: 1.05, LocSigma: 1.3},
	}
}

// BenchmarkSweep is the MCMM headline: evaluating 8 scenarios against the
// quad design through SweepAnalyze (one partition/PCA/stitch shared by all
// scenarios, one rescaling propagation each) versus 8 independent
// AnalyzeOpt calls (each re-stitching the design). Both run with the
// geometry/PCA prep cache warm, so the measured gap is the stitch work the
// sweep amortizes.
func BenchmarkSweep(b *testing.B) {
	flow := ssta.DefaultFlow()
	g, plan, err := flow.BenchGraph("c1355", 1)
	if err != nil {
		b.Fatal(err)
	}
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := ssta.NewModule("c1355", model, plan)
	if err != nil {
		b.Fatal(err)
	}
	d, err := flow.QuadDesign("sweep-quad", mod)
	if err != nil {
		b.Fatal(err)
	}
	scens := sweepScenarios()
	// Warm the prep cache: both paths measure post-prep steady state.
	if _, err := d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1}); err != nil {
		b.Fatal(err)
	}

	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for range scens {
				if _, err := d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(scens)), "scenarios")
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := ssta.SweepAnalyze(context.Background(), d, ssta.FullCorrelation, scens,
				ssta.SweepOptions{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completed != len(scens) {
				b.Fatalf("completed %d of %d", rep.Completed, len(scens))
			}
		}
		b.ReportMetric(float64(len(scens)), "scenarios")
	})
}

// BenchmarkAllPairs measures the all-pairs delay-matrix computation used by
// both Table I accuracy columns.
func BenchmarkAllPairs(b *testing.B) {
	g := benchGraph(b, "c1355")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.AllPairsDelays(0); err != nil {
			b.Fatal(err)
		}
	}
}
