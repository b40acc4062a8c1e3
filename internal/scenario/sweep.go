package scenario

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/hier"
	"repro/internal/timing"
)

// Options tunes a sweep.
type Options struct {
	// Workers bounds how many scenarios propagate concurrently
	// (<=0: GOMAXPROCS).
	Workers int
	// TopK bounds the divergence ranking in the report (<=0: 3).
	TopK int
	// Quantile is the per-scenario/envelope yield quantile
	// (<=0: 0.99865, the 3-sigma signoff point).
	Quantile float64
	// Analyze tunes the shared stitch and any per-swap-scenario stitches
	// of a design sweep.
	Analyze hier.AnalyzeOptions
	// OnScenarioDone, when set, is invoked from the scenario's worker
	// goroutine right after its result (including Elapsed and Err) is
	// final — the serving layer's per-scenario metrics hook. It must be
	// safe to call concurrently for distinct scenarios.
	OnScenarioDone func(i int, r *Result)
}

func (o Options) normalize() Options {
	if o.TopK <= 0 {
		o.TopK = 3
	}
	if o.Quantile <= 0 {
		o.Quantile = 0.99865
	}
	return o
}

// Result is the outcome of one scenario. Err is set when the scenario
// failed (including cancellation mid-sweep); the statistical fields are
// then zero and Delay nil. A successful result normally carries the
// canonical delay form, but results that crossed a process boundary
// (cluster shard dispatch) carry only the scalar statistics — Delay may
// be nil on a completed scenario.
type Result struct {
	Name  string
	Delay *canon.Form
	// Mean, Std and Quantile (at Options.Quantile) of the circuit delay.
	Mean, Std, Quantile float64
	// SetupSlack and HoldSlack summarize the worst-register slack
	// distributions under the scenario's clock; nil on combinational
	// graphs. Their Quantile is the LOW tail (1 - Options.Quantile) — the
	// yield-side slack.
	SetupSlack *SlackStat
	HoldSlack  *SlackStat
	// Shared marks a scenario that ran on the shared stitched graph; false
	// for swap scenarios, which stitch privately.
	Shared  bool
	Elapsed time.Duration
	Err     error
}

// SlackStat is the scalar summary of one slack distribution.
type SlackStat struct {
	Mean, Std, Quantile float64
}

// Envelope is the cross-scenario worst case: the component-wise maximum of
// the per-scenario statistics over every completed scenario. Scenarios are
// alternative operating worlds, not jointly distributed variables, so the
// envelope maximizes statistics rather than Clark-maxing forms. Worst
// names the scenario attaining the quantile maximum — the signoff corner.
type Envelope struct {
	Mean, Std, Quantile float64
	Worst               string
}

// Divergence scores how far a scenario's delay distribution moved from the
// sweep baseline (the first scenario): |mean delta| + |sigma delta|.
type Divergence struct {
	Name  string
	Score float64
}

// Report is the outcome of one sweep: a result per scenario in input
// order, the worst-case envelope, and the most divergent scenarios
// relative to the baseline.
type Report struct {
	Results  []Result
	Envelope Envelope
	// Completed counts scenarios that finished without error; a cancelled sweep
	// reports the partial accounting (completed results keep their values,
	// the rest carry the cancellation error).
	Completed    int
	TopDivergent []Divergence
	Elapsed      time.Duration
	// Top is the shared stitched/flat graph the swap-free scenarios ran on
	// (nil for an all-swap design sweep). The serving layer reports its
	// size to callers that batched an analyze request onto a sweep.
	Top *timing.Graph
	// TopVerts/TopEdges record the shared graph's size as plain scalars so
	// the accounting survives process boundaries (cluster shard responses
	// drop the graph itself). Zero when no shared graph ran.
	TopVerts int
	TopEdges int
}

// NewReport assembles a report from per-scenario results: envelope,
// completion accounting and divergence ranking. Exposed so the session
// layer can re-assemble reports from incrementally maintained results.
func NewReport(results []Result, opt Options) *Report {
	opt = opt.normalize()
	rep := &Report{Results: results}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			continue
		}
		rep.Completed++
		if r.Mean > rep.Envelope.Mean {
			rep.Envelope.Mean = r.Mean
		}
		if r.Std > rep.Envelope.Std {
			rep.Envelope.Std = r.Std
		}
		if r.Quantile > rep.Envelope.Quantile {
			rep.Envelope.Quantile = r.Quantile
			rep.Envelope.Worst = r.Name
		}
	}
	// Divergence vs the baseline (first completed scenario — callers
	// conventionally put the unit scenario first).
	var base *Result
	for i := range results {
		if results[i].Err == nil {
			base = &results[i]
			break
		}
	}
	if base != nil {
		for i := range results {
			r := &results[i]
			if r.Err != nil || r == base {
				continue
			}
			score := abs(r.Mean-base.Mean) + abs(r.Std-base.Std)
			rep.TopDivergent = append(rep.TopDivergent, Divergence{Name: r.Name, Score: score})
		}
		sort.SliceStable(rep.TopDivergent, func(a, b int) bool {
			return rep.TopDivergent[a].Score > rep.TopDivergent[b].Score
		})
		if len(rep.TopDivergent) > opt.TopK {
			rep.TopDivergent = rep.TopDivergent[:opt.TopK]
		}
	}
	return rep
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Normalize validates a scenario list and fills default names, returning
// an independent copy. allowSwaps gates module-swap scenarios (design
// sweeps only).
func Normalize(scens []Scenario, allowSwaps bool) ([]Scenario, error) {
	if len(scens) == 0 {
		return nil, errors.New("scenario: empty scenario list")
	}
	out := make([]Scenario, len(scens))
	copy(out, scens)
	for i := range out {
		if out[i].Name == "" {
			out[i].Name = fmt.Sprintf("scenario-%d", i)
		}
		if err := out[i].Validate(); err != nil {
			return nil, err
		}
		if !allowSwaps && len(out[i].Swaps) > 0 {
			return nil, fmt.Errorf("scenario %q: module swaps require a design sweep", out[i].Name)
		}
	}
	return out, nil
}

// SweepGraph evaluates every scenario against one flat timing graph with
// shared prep: the graph's flat edge-delay bank is built and its edges
// classified once, and each scenario propagates over that one bank, its
// walker rescaling every delay as it reads it (identity scenarios read it
// unscaled), on the shared worker pool. Per-scenario failures — including
// cancellation mid-sweep — land in Result.Err and never abort the rest of
// the sweep; the returned error is reserved for sweep-level validation,
// an EdgeScales key outside the graph's edges included.
func SweepGraph(ctx context.Context, g *timing.Graph, scens []Scenario, opt Options) (*Report, error) {
	if g == nil {
		return nil, errors.New("scenario: nil graph")
	}
	scens, err := Normalize(scens, false)
	if err != nil {
		return nil, err
	}
	opt = opt.normalize()
	start := time.Now()
	if _, err := g.Order(); err != nil {
		return nil, err
	}
	if err := CheckEdgeScales(ctx, g, nil, 0, scens, hier.AnalyzeOptions{}); err != nil {
		return nil, err
	}
	var cell []bool
	if rescales(scens) {
		cell = classify(g)
	}
	results := make([]Result, len(scens))
	runOne := func(ctx context.Context, i int) {
		sc := &scens[i]
		r := &results[i]
		r.Name = sc.Name
		r.Shared = true
		s0 := time.Now()
		r.Delay, r.Err = runScenario(ctx, g, cell, sc, opt.Quantile, r)
		r.Elapsed = time.Since(s0)
		if opt.OnScenarioDone != nil {
			opt.OnScenarioDone(i, r)
		}
	}
	// The pool never sees task errors: every started scenario records its
	// own outcome, so a cancellation mid-sweep yields partial accounting
	// instead of an aborted report.
	_ = timing.ParallelForCtx(ctx, len(scens), opt.Workers, func(ctx context.Context, i int) error {
		runOne(ctx, i)
		return nil
	})
	fillUnrun(ctx, scens, results, opt)
	rep := NewReport(results, opt)
	rep.Elapsed = time.Since(start)
	rep.Top = g
	rep.TopVerts, rep.TopEdges = g.NumVerts, len(g.Edges)
	return rep, nil
}

// fillUnrun accounts for scenarios the pool never started (cancellation
// before their index was claimed): they get the context error so a partial
// report still carries one definite outcome per scenario, and the
// OnScenarioDone hook fires for them too — callers' accounting (the
// serving layer's rejected-scenario counter) must match the report.
func fillUnrun(ctx context.Context, scens []Scenario, results []Result, opt Options) {
	for i := range results {
		r := &results[i]
		if r.Delay == nil && r.Err == nil {
			r.Name = scens[i].Name
			if err := ctx.Err(); err != nil {
				r.Err = err
			} else {
				r.Err = errors.New("scenario: not run")
			}
			if opt.OnScenarioDone != nil {
				opt.OnScenarioDone(i, r)
			}
		}
	}
}

// factorPool recycles the per-edge factor slices of running scenarios, so
// a warm sweep allocates none.
var factorPool sync.Pool // *[]float64

// rescales reports whether some swap-free scenario rescales the shared
// graph; only then does a sweep classify its edges (an analyze item, one
// identity scenario, never reads the classes).
func rescales(scens []Scenario) bool {
	for i := range scens {
		if len(scens[i].Swaps) == 0 && !scens[i].Identity() {
			return true
		}
	}
	return false
}

// classify returns cellEdge of every edge of g.
func classify(g *timing.Graph) []bool {
	cell := make([]bool, len(g.Edges))
	for ei := range g.Edges {
		cell[ei] = cellEdge(&g.Edges[ei])
	}
	return cell
}

// runScenario analyzes the graph under the scenario: one late pass for the
// circuit delay and, on sequential graphs, one early pass for the worst
// setup/hold slack under the scenario's clock. Both walks read the graph's
// own delay bank, rescaling each delay per the scenario as they read it;
// cell is classify of g (unused by an identity scenario).
func runScenario(ctx context.Context, g *timing.Graph, cell []bool, sc *Scenario, q float64, r *Result) (*canon.Form, error) {
	var scale *timing.Scale
	if !sc.Identity() {
		buf, _ := factorPool.Get().(*[]float64)
		if buf == nil || cap(*buf) < len(cell) {
			buf = new([]float64)
			*buf = make([]float64, len(cell))
		}
		defer factorPool.Put(buf)
		s := sc.scale(cell, (*buf)[:len(cell)])
		scale = &s
	}
	delay, seq, err := g.AnalyzeWorstCtx(ctx, scale, sc.ClockSpec())
	if err != nil {
		return nil, err
	}
	r.Mean, r.Std, r.Quantile = delay.Mean(), delay.Std(), delay.Quantile(q)
	if seq != nil {
		r.SetupSlack, r.HoldSlack = SeqSlackStats(seq, q)
	}
	return delay, nil
}

// SeqSlackStats summarizes the worst setup/hold slack of a sequential
// analysis. q is the high-tail delay quantile of the sweep; the slack
// quantiles are reported at the mirrored low tail — the yield-side margin.
// The session layer shares this with the sweep engine so incremental sweep
// refreshes report identical slack statistics.
func SeqSlackStats(seq *timing.SeqResult, q float64) (setup, hold *SlackStat) {
	lo := 1 - q
	setup = &SlackStat{
		Mean: seq.WorstSetup.Mean(), Std: seq.WorstSetup.Std(),
		Quantile: seq.WorstSetup.Quantile(lo),
	}
	hold = &SlackStat{
		Mean: seq.WorstHold.Mean(), Std: seq.WorstHold.Std(),
		Quantile: seq.WorstHold.Quantile(lo),
	}
	return setup, hold
}

// SweepDesign evaluates every scenario against a hierarchical design with
// shared prep: the design is partitioned, PCA'd and stitched once (through
// its prep cache), and every swap-free scenario re-propagates the shared
// top graph, rescaling its delays as the walker reads them. Scenarios with
// module swaps stitch a private structural copy of the design (their
// extraction is assumed pre-paid through the shared ExtractCache) and then
// run the same way on their own top graph. An EdgeScales key outside the
// edges of the graph its scenario runs on fails the whole sweep before any
// scenario runs (CheckEdgeScales).
func SweepDesign(ctx context.Context, d *hier.Design, mode hier.Mode, scens []Scenario, opt Options) (*Report, error) {
	if d == nil {
		return nil, errors.New("scenario: nil design")
	}
	scens, err := Normalize(scens, true)
	if err != nil {
		return nil, err
	}
	opt = opt.normalize()
	start := time.Now()

	// Shared stitch, skipped when every scenario swaps structure. Its
	// failure is a sweep-level error: nothing can run without it.
	var top *timing.Graph
	var cell []bool
	for i := range scens {
		if len(scens[i].Swaps) == 0 {
			res, err := d.Stitch(ctx, mode, opt.Analyze)
			if err != nil {
				return nil, err
			}
			top = res.Graph
			if rescales(scens) {
				cell = classify(top)
			}
			break
		}
	}
	if err := CheckEdgeScales(ctx, top, d, mode, scens, opt.Analyze); err != nil {
		return nil, err
	}

	results := make([]Result, len(scens))
	_ = timing.ParallelForCtx(ctx, len(scens), opt.Workers, func(ctx context.Context, i int) error {
		sc := &scens[i]
		r := &results[i]
		r.Name = sc.Name
		s0 := time.Now()
		if len(sc.Swaps) == 0 {
			r.Shared = true
			r.Delay, r.Err = runScenario(ctx, top, cell, sc, opt.Quantile, r)
		} else {
			r.Delay, r.Err = runSwapScenario(ctx, d, mode, sc, opt, r)
		}
		r.Elapsed = time.Since(s0)
		if opt.OnScenarioDone != nil {
			opt.OnScenarioDone(i, r)
		}
		return nil
	})
	fillUnrun(ctx, scens, results, opt)
	rep := NewReport(results, opt)
	rep.Elapsed = time.Since(start)
	rep.Top = top
	if top != nil {
		rep.TopVerts, rep.TopEdges = top.NumVerts, len(top.Edges)
	}
	return rep, nil
}

// ScenarioError is a failure of the whole sweep that one scenario of the
// list caused; Index is its position in the list.
type ScenarioError struct {
	Index int
	Err   error
}

func (e *ScenarioError) Error() string { return fmt.Sprintf("scenario %d: %v", e.Index, e.Err) }
func (e *ScenarioError) Unwrap() error { return e.Err }

// CheckEdgeScales checks every scenario's EdgeScales keys against the graph
// it runs on: top for a swap-free scenario (stitched from d when top is nil
// and some such scenario has per-edge scales), and for a swap scenario of a
// design sweep its private top, stitched from d here and dropped — such a
// scenario pays its stitch twice, and one that cannot stitch reports that
// when it runs. The first offending scenario fails the check with a
// *ScenarioError naming its key.
func CheckEdgeScales(ctx context.Context, top *timing.Graph, d *hier.Design, mode hier.Mode, scens []Scenario, opt hier.AnalyzeOptions) error {
	for i := range scens {
		sc := &scens[i]
		if len(sc.EdgeScales) == 0 {
			continue
		}
		g := top
		switch {
		case len(sc.Swaps) > 0 && d != nil:
			var err error
			if g, err = swapTop(ctx, d, mode, sc, opt); err != nil {
				continue
			}
		case g == nil:
			res, err := d.Stitch(ctx, mode, opt)
			if err != nil {
				return err
			}
			g, top = res.Graph, res.Graph
		}
		if err := sc.CheckEdges(g); err != nil {
			return &ScenarioError{Index: i, Err: err}
		}
	}
	return nil
}

// swapTop applies the scenario's module swaps to a private structural copy
// of the design and stitches it.
func swapTop(ctx context.Context, d *hier.Design, mode hier.Mode, sc *Scenario, opt hier.AnalyzeOptions) (*timing.Graph, error) {
	dd := d.CopyStructure()
	for name, m := range sc.Swaps {
		found := false
		for _, inst := range dd.Instances {
			if inst.Name == name {
				inst.Module = m
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("scenario %q: unknown instance %q", sc.Name, name)
		}
	}
	res, err := dd.Stitch(ctx, mode, opt)
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// runSwapScenario runs the scenario over its private top graph (swapTop).
func runSwapScenario(ctx context.Context, d *hier.Design, mode hier.Mode, sc *Scenario, opt Options, r *Result) (*canon.Form, error) {
	g, err := swapTop(ctx, d, mode, sc, opt.Analyze)
	if err != nil {
		return nil, err
	}
	if err := sc.CheckEdges(g); err != nil {
		return nil, err
	}
	var cell []bool
	if !sc.Identity() {
		cell = classify(g)
	}
	return runScenario(ctx, g, cell, sc, opt.Quantile, r)
}
