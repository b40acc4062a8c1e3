package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/hier"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/timing"
	"repro/ssta"
)

// The replay measures each layer from outside the program: it calls the
// layers' public functions directly on the inputs the daemon serves, with
// a span around every call, and reports each metric as the median over
// repetitions. Spans inside the daemon are not needed for this.

type replayer struct {
	ctx  context.Context
	tr   *tracer
	flow *ssta.Flow
	rng  *rand.Rand
	out  map[string]float64
}

// measure runs f reps times, each inside a span, and returns the median
// duration in the given unit (1e3: µs, 1: ms).
func (r *replayer) measure(span string, reps int, perMS float64, f func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if err := r.ctx.Err(); err != nil {
			return 0, err
		}
		d, err := r.tr.timed(0, "replay."+span, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", span, err)
		}
		ds = append(ds, ms(d)*perMS)
	}
	return median(ds), nil
}

const (
	unitMS = 1.0
	unitUS = 1e3
	unitNS = 1e6
)

// replay runs every layer measurement; seed drives the random choices
// (scenario draws, edited edges).
func replay(ctx context.Context, tr *tracer, seed int64) (map[string]float64, error) {
	r := &replayer{ctx: ctx, tr: tr, flow: ssta.DefaultFlow(), rng: rand.New(rand.NewSource(seed*7919 + 5)), out: map[string]float64{}}
	for _, step := range []func() error{r.flat, r.quad, r.sessions, r.kernels, r.extract, r.rpc} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// flat covers the batch engine and the flat propagation passes.
func (r *replayer) flat() error {
	for _, s := range []struct {
		name    string
		bench   string
		clocked bool
	}{{"c432", "c432", false}, {"c1908", "c1908", false}, {"c7552", "c7552", false}, {"c1908-clk", "c1908", true}, {"c7552-clk", "c7552", true}} {
		g, _, err := benchGraph(r.flow, s.bench, 1, s.clocked)
		if err != nil {
			return err
		}
		analyze := func() error {
			return r.flow.AnalyzeBatch([]ssta.BatchItem{{Graph: g}}, ssta.BatchOptions{Workers: 1})[0].Err
		}
		if err := analyze(); err != nil { // first pass builds the graph's delay bank
			return err
		}
		if s.name != "c1908-clk" {
			if r.out["ssta.analyze_ms."+s.name], err = r.measure("ssta.AnalyzeBatch/"+s.name, 30, unitMS, analyze); err != nil {
				return err
			}
		}
		if !s.clocked {
			if r.out["timing.max_pass_ms."+s.name], err = r.measure("timing.MaxDelayCtx/"+s.name, 30, unitMS, func() error {
				_, err := g.MaxDelayCtx(r.ctx)
				return err
			}); err != nil {
				return err
			}
			continue
		}
		if r.out["timing.min_pass_ms."+s.name], err = r.measure("timing.ArrivalsMin/"+s.name, 30, unitMS, func() error {
			p := g.AcquirePass().WithContext(r.ctx)
			defer p.Release()
			return p.ArrivalsMin(g.LaunchSources()...)
		}); err != nil {
			return err
		}
		if r.out["timing.seq_slacks_ms."+s.name], err = r.measure("timing.SequentialSlacks/"+s.name, 30, unitMS, func() error {
			_, err := g.SequentialSlacks(ssta.ClockSpec{})
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// drawScenarios draws n scenarios exactly as the sweep workloads do.
func (r *replayer) drawScenarios(n int) ([]ssta.Scenario, error) {
	g := &sweepGen{rng: r.rng, scenarios: n}
	req := g.next()
	var sr server.SweepRequest
	if err := json.Unmarshal(req.Body, &sr); err != nil {
		return nil, err
	}
	out := make([]ssta.Scenario, len(sr.Scenarios))
	for i := range sr.Scenarios {
		out[i] = sr.Scenarios[i].Scenario()
	}
	return out, nil
}

// quad covers hier prep and stitch, the scenario engine and the passes over
// the stitched top graph of quad-c1355.
func (r *replayer) quad() error {
	ctx := r.ctx
	d, mod1, err := quadDesign(r.flow, "c1355", 1)
	if err != nil {
		return err
	}
	_, mod2, err := quadDesign(r.flow, "c1355", 2)
	if err != nil {
		return err
	}
	opt := ssta.AnalyzeOptions{Workers: 1}
	if _, err := d.AnalyzeCtx(ctx, ssta.FullCorrelation, opt); err != nil { // fills the prep cache
		return err
	}
	res, err := d.Stitch(ctx, ssta.FullCorrelation, opt)
	if err != nil {
		return err
	}
	top := res.Graph
	if _, err := top.MaxDelayCtx(ctx); err != nil { // builds the top's delay bank
		return err
	}
	o := r.out
	if o["hier.stitch_ms.quad-c1355"], err = r.measure("hier.Stitch/quad-c1355", 20, unitMS, func() error {
		_, err := d.Stitch(ctx, ssta.FullCorrelation, opt)
		return err
	}); err != nil {
		return err
	}
	if o["timing.max_pass_ms.quad-c1355"], err = r.measure("timing.MaxDelayCtx/quad-c1355", 30, unitMS, func() error {
		_, err := top.MaxDelayCtx(ctx)
		return err
	}); err != nil {
		return err
	}
	bank := top.EdgeDelays()
	if o["timing.arrivals_over_us.quad-c1355"], err = r.measure("timing.ArrivalsOver/quad-c1355", 50, unitUS, func() error {
		p := top.AcquirePass().WithContext(ctx)
		defer p.Release()
		return p.ArrivalsOver(bank, top.LaunchSources()...)
	}); err != nil {
		return err
	}
	for _, n := range []int{64, sweepScenarios} {
		scens, err := r.drawScenarios(n)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("quad-c1355-%d", n)
		if o["ssta.sweep_ms."+name], err = r.measure("ssta.SweepAnalyze/"+name, 15, unitMS, func() error {
			_, err := ssta.SweepAnalyze(ctx, d, ssta.FullCorrelation, scens, ssta.SweepOptions{Workers: 1})
			return err
		}); err != nil {
			return err
		}
		if n != 64 {
			continue
		}
		var perScen []float64
		if o["scenario.sweep_graph_ms.64"], err = r.measure("scenario.SweepGraph/64", 15, unitMS, func() error {
			rep, err := scenario.SweepGraph(ctx, top, scens, scenario.Options{Workers: 1})
			if err != nil {
				return err
			}
			var sum time.Duration
			for i := range rep.Results {
				sum += rep.Results[i].Elapsed
			}
			perScen = append(perScen, float64(sum.Nanoseconds())/1e3/float64(len(rep.Results)))
			return nil
		}); err != nil {
			return err
		}
		o["scenario.per_scenario_us"] = median(perScen)
		o["scenario.rescale_us"] = o["scenario.per_scenario_us"] - o["timing.arrivals_over_us.quad-c1355"]
	}

	hs, err := hier.NewSession(ctx, d.CopyStructure(), hier.FullCorrelation, opt)
	if err != nil {
		return err
	}
	swaps := 0
	if o["hier.swap_restitch_ms"], err = r.measure("hier.SwapModule/quad-c1355", 20, unitMS, func() error {
		swaps++
		m := mod2
		if swaps%2 == 0 {
			m = mod1
		}
		return hs.SwapModule(ctx, "B", m)
	}); err != nil {
		return err
	}
	sess, err := r.flow.NewDesignSession(ctx, d, ssta.FullCorrelation, opt)
	if err != nil {
		return err
	}
	swaps = 0
	if o["ssta.session_apply_ms.swap"], err = r.measure("ssta.Session.Apply/swap", 20, unitMS, func() error {
		swaps++
		m := mod2
		if swaps%2 == 0 {
			m = mod1
		}
		_, err := sess.Apply(ctx, []ssta.Edit{{Op: ssta.EditSwapModule, Instance: "B", Module: m}})
		return err
	}); err != nil {
		return err
	}
	// Last: it drops the design's prep, so every rep pays it cold.
	o["hier.prep_cold_ms.quad-c1355"], err = r.measure("hier.InvalidatePrep+AnalyzeCtx/quad-c1355", 5, unitMS, func() error {
		d.InvalidatePrep()
		_, err := d.AnalyzeCtx(ctx, ssta.FullCorrelation, opt)
		return err
	})
	return err
}

// sessions covers flat session edits and the incremental propagation under
// them, on c7552.
func (r *replayer) sessions() error {
	ctx := r.ctx
	g, _, err := r.flow.BenchGraph("c7552", 1)
	if err != nil {
		return err
	}
	sess, err := r.flow.NewGraphSession(ctx, g)
	if err != nil {
		return err
	}
	var pending []ssta.Edit
	if r.out["ssta.session_apply_us.flat"], err = r.measure("ssta.Session.Apply/flat", 120, unitUS, func() error {
		batch := pending
		if batch == nil {
			batch = make([]ssta.Edit, 1+r.rng.Intn(4))
			for i := range batch {
				batch[i] = ssta.Edit{Op: ssta.EditScaleDelay, Edge: r.rng.Intn(len(g.Edges)), Scale: powerScales[r.rng.Intn(len(powerScales))]}
			}
			pending = make([]ssta.Edit, len(batch))
			for i, e := range batch {
				e.Scale = 1 / e.Scale
				pending[i] = e
			}
		} else {
			pending = nil
		}
		_, err := sess.Apply(ctx, batch)
		return err
	}); err != nil {
		return err
	}

	gc := g.Clone()
	inc, err := gc.NewIncremental()
	if err != nil {
		return err
	}
	var recomputed []float64
	var edge int
	undo := false
	if r.out["timing.inc_update_us"], err = r.measure("timing.Incremental.Update/c7552", 120, unitUS, func() error {
		scale := 2.0
		if !undo {
			edge = r.rng.Intn(len(gc.Edges))
		} else {
			scale = 0.5
		}
		undo = !undo
		if err := gc.ScaleEdgeDelay(edge, scale); err != nil {
			return err
		}
		st, err := inc.Update(ctx)
		recomputed = append(recomputed, float64(st.Forward))
		return err
	}); err != nil {
		return err
	}
	r.out["timing.inc_recomputed_verts"] = median(recomputed)
	return nil
}

// kernels times the canon Clark kernels at the flat (c7552) and hier
// (quad-c1355 top) canonical spaces, counts how many of them a forward
// pass runs, and relates the two to the measured pass.
func (r *replayer) kernels() error {
	g, _, err := r.flow.BenchGraph("c7552", 1)
	if err != nil {
		return err
	}
	d, _, err := quadDesign(r.flow, "c1355", 1)
	if err != nil {
		return err
	}
	res, err := d.Stitch(r.ctx, ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1})
	if err != nil {
		return err
	}
	for _, s := range []struct {
		space, subject string
		g              *timing.Graph
	}{{"flat", "c7552", g}, {"quad", "quad-c1355", res.Graph}} {
		a, b, dst, err := kernelOperands(s.g)
		if err != nil {
			return err
		}
		for _, k := range []struct {
			name string
			f    func(dst, a, b canon.View)
		}{{"max", canon.MaxViews}, {"min", canon.MinViews}, {"add", canon.AddViews}} {
			r.out[fmt.Sprintf("canon.%s_views_ns.%s", k.name, s.space)] = r.kernelNS(k.name+"/"+s.space, func() { k.f(dst, a, b) })
		}
		maxOps, addOps, err := opsPerPass(s.g)
		if err != nil {
			return err
		}
		r.out["canon.max_ops_per_pass."+s.subject] = float64(maxOps)
		r.out["canon.add_ops_per_pass."+s.subject] = float64(addOps)
		kernelNS := float64(maxOps)*r.out["canon.max_views_ns."+s.space] + float64(addOps)*r.out["canon.add_views_ns."+s.space]
		r.out["canon.kernel_share."+s.subject] = kernelNS / (r.out["timing.max_pass_ms."+s.subject] * 1e6)
	}
	return nil
}

// kernelOperands returns two realistic operands (output arrivals of a
// forward pass) and a destination in the graph's canonical space.
func kernelOperands(g *timing.Graph) (a, b, dst canon.View, err error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(g.LaunchSources()...); err != nil {
		return nil, nil, nil, err
	}
	bank := canon.NewBank(g.Space, 3)
	n := 0
	for _, o := range g.Outputs {
		if p.Reached(o) && n < 2 {
			canon.CopyView(bank.View(n), p.At(o))
			n++
		}
	}
	if n < 2 {
		return nil, nil, nil, fmt.Errorf("kernel operands: %d reached outputs", n)
	}
	return bank.View(0), bank.View(1), bank.View(2), nil
}

// kernelNS times f in rounds of at least 5 ms and returns the median
// nanoseconds per call over five rounds.
func (r *replayer) kernelNS(name string, f func()) float64 {
	n := 1000
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= 5*time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for k := range per {
		d, _ := r.tr.timed(0, "replay.canon."+name, func() error {
			for i := 0; i < n; i++ {
				f()
			}
			return nil
		})
		per[k] = float64(d.Nanoseconds()) / float64(n)
	}
	return median(per)
}

// opsPerPass counts the Clark max and add kernels one forward pass from
// the launch sources runs (including the fold over reached outputs),
// mirroring the push order of the propagation kernel.
func opsPerPass(g *timing.Graph) (maxOps, addOps int, err error) {
	order, err := g.Order()
	if err != nil {
		return 0, 0, err
	}
	reach := make([]bool, g.NumVerts)
	for _, s := range g.LaunchSources() {
		reach[s] = true
	}
	for _, v := range order {
		if !reach[v] {
			continue
		}
		for _, ei := range g.Out[v] {
			to := g.Edges[ei].To
			addOps++
			if reach[to] {
				maxOps++
			} else {
				reach[to] = true
			}
		}
	}
	outs := 0
	for _, o := range g.Outputs {
		if reach[o] {
			outs++
		}
	}
	if outs > 1 {
		maxOps += outs - 1
	}
	return maxOps, addOps, nil
}

// extract times cold (uncached) model extraction.
func (r *replayer) extract() error {
	uncached := &ssta.Flow{Lib: r.flow.Lib, Corr: r.flow.Corr, Pitch: r.flow.Pitch}
	for _, b := range []string{"c432", "c1355", "c1908"} {
		g, _, err := uncached.BenchGraph(b, 1)
		if err != nil {
			return err
		}
		if r.out["core.extract_ms."+b], err = r.measure("core.Extract/"+b, 3, unitMS, func() error {
			_, err := uncached.ExtractCtx(r.ctx, g, ssta.ExtractOptions{})
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// rpc times the cluster ping round trip against a live in-process worker.
func (r *replayer) rpc() error {
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	srv := server.New(server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- cluster.Serve(ctx, ln, srv.WorkerService()) }()
	pool := cluster.NewPool(cluster.PoolConfig{Addrs: []string{ln.Addr().String()}})
	node := pool.Nodes()[0]
	ping := func() error {
		_, err := pool.Do(ctx, node, cluster.PingMethod, nil, nil)
		return err
	}
	err = ping()
	if err == nil {
		r.out["cluster.rpc_rtt_us"], err = r.measure("cluster.Pool.Do/ping", 200, unitUS, ping)
	}
	pool.Close()
	cancel()
	if serr := <-served; err == nil && serr != nil {
		err = serr
	}
	return err
}
