package timing

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/canon"
)

// This file computes statistical setup/hold slack for the registers of a
// sequential timing graph, following the register-to-register recipe of
// "Timing Model Extraction for Sequential Circuits Considering Process
// Variations" (arXiv 1705.04976): launch clock -> clk->Q arc -> combinational
// path -> D pin, checked against the capture edge one period later (setup)
// or the same edge (hold). Constraints, arrivals and slacks are all
// canonical forms, so the slack distributions stay correlated with the
// parameter space exactly like delays do.

// ClockSpec describes the clock a sequential analysis is run against. All
// values are picoseconds. Skew is the deterministic worst-case launch/capture
// edge separation: it tightens setup (the capture edge may come SkewPS early)
// and hold (the capture edge may come SkewPS late) symmetrically. Jitter is
// the 1-sigma cycle-to-cycle clock uncertainty; it enters the slack forms as
// an independent random contribution (RSS with the path randomness).
type ClockSpec struct {
	PeriodPS float64
	SkewPS   float64
	JitterPS float64
}

// DefaultClockPeriodPS is the clock period assumed when a sequential design
// is analyzed without an explicit clock — roughly 2 GHz, comfortable for the
// synthetic 90nm library's benchmark depths.
const DefaultClockPeriodPS = 500.0

// DefaultClock returns the clock used when none is specified.
func DefaultClock() ClockSpec { return ClockSpec{PeriodPS: DefaultClockPeriodPS} }

// normalize fills the default period and rejects negatives.
func (c ClockSpec) normalize() (ClockSpec, error) {
	if c.PeriodPS == 0 {
		c.PeriodPS = DefaultClockPeriodPS
	}
	if c.PeriodPS < 0 || c.SkewPS < 0 || c.JitterPS < 0 {
		return c, fmt.Errorf("timing: negative clock spec %+v", c)
	}
	return c, nil
}

// RegSlack holds one register's statistical slack forms. Setup is
// (T - skew) - setup - latestArrival(D) with clock jitter in the random
// part; Hold is earliestArrival(D) - hold - skew likewise. Negative slack
// mass is failure probability.
type RegSlack struct {
	Name  string
	Setup *canon.Form
	Hold  *canon.Form
}

// SeqResult is the sequential analysis of a graph under one clock.
type SeqResult struct {
	Clock ClockSpec
	// Regs holds one entry per register whose D pin a launch source
	// reaches, in Graph.Registers order (nil from AnalyzeWorstCtx). Every
	// slack form of the result, the worst slacks included, aliases one
	// shared slab: treat them as read-only.
	Regs []RegSlack
	// WorstSetup/WorstHold are the statistical minima of the per-register
	// slacks — the design-level setup and hold margins.
	WorstSetup *canon.Form
	WorstHold  *canon.Form
}

// AnalyzeCtx is the one analysis of a graph under a clock. A single late
// (Clark max) pass from the launch sources yields the circuit delay — the
// statistical maximum over the reached outputs, folded in output order —
// and, on sequential graphs, the setup side of every register's slack; a
// single early (Clark min) pass, run only on sequential graphs, yields the
// hold side. seq is nil for combinational graphs, which ignore clock. Both
// passes run in frontier arenas (see Pass).
//
// A nil scale reads the graph's own edge delays; otherwise both walks
// rescale them per scale as they read them (the scenario-sweep hook, see
// Scale). Both passes poll ctx between vertices (nil disables polling). When
// outputs is non-nil it must hold one slot per Graph.Outputs entry; each
// slot receives that output's late arrival form, nil when unreached.
func (g *Graph) AnalyzeCtx(ctx context.Context, scale *Scale, clock ClockSpec, outputs []*canon.Form) (delay *canon.Form, seq *SeqResult, err error) {
	return g.analyze(ctx, scale, clock, true, true, outputs)
}

// AnalyzeWorstCtx is AnalyzeCtx for callers that read only the worst
// slacks: seq carries WorstSetup and WorstHold, bit-identical to
// AnalyzeCtx's, but no Regs. The per-register slacks are folded in the
// passes' scratch slots, so only the two worst forms are allocated.
func (g *Graph) AnalyzeWorstCtx(ctx context.Context, scale *Scale, clock ClockSpec) (delay *canon.Form, seq *SeqResult, err error) {
	return g.analyze(ctx, scale, clock, true, false, nil)
}

// SequentialSlacks computes per-register statistical setup and hold slack
// under the given clock, launching max and min arrival passes from the
// graph's launch sources (inputs and clock roots).
func (g *Graph) SequentialSlacks(clock ClockSpec) (*SeqResult, error) {
	_, seq, err := g.analyze(nil, nil, clock, false, true, nil)
	return seq, err
}

// analyze is AnalyzeCtx with the delay fold and the per-register slacks
// optional: without the delay, a combinational graph is an error and
// unreached outputs are not.
func (g *Graph) analyze(ctx context.Context, scale *Scale, clock ClockSpec, withDelay, perReg bool, outputs []*canon.Form) (delay *canon.Form, seq *SeqResult, err error) {
	sequential := g.Sequential()
	if sequential {
		if clock, err = clock.normalize(); err != nil {
			return nil, nil, err
		}
	} else if !withDelay {
		return nil, nil, errors.New("timing: graph has no registers")
	}
	sources := g.LaunchSources()

	late, err := g.acquireFrontier()
	if err != nil {
		return nil, nil, err
	}
	defer late.Release()
	if err := late.WithContext(ctx).arrivalsScaled(scale, canon.MaxViews, sources); err != nil {
		return nil, nil, err
	}
	if withDelay {
		if delay, err = late.outputMax(outputs); err != nil {
			return nil, nil, err
		}
	}
	if !sequential {
		return delay, nil, nil
	}
	early, err := g.acquireFrontier()
	if err != nil {
		return nil, nil, err
	}
	defer early.Release()
	if err := early.WithContext(ctx).arrivalsScaled(scale, canon.MinViews, sources); err != nil {
		return nil, nil, err
	}
	if seq, err = g.slacks(late, early, clock, perReg); err != nil {
		return nil, nil, err
	}
	return delay, seq, nil
}

// slacks assembles the per-register slacks from a late and an early pass
// and folds the worst ones. With perReg, everything is written in views of
// one slab — slots 2k and 2k+1 hold register k's setup and hold, the last
// two slots the worst setup and hold — so the assembly allocates the same
// handful of objects whatever the register count. Without it, each
// register's setup and hold are formed in the scratch slots of the late
// and early pass, the worst in their second scratch slots, and only the
// two worst forms are materialized.
func (g *Graph) slacks(late, early *Pass, clock ClockSpec, perReg bool) (*SeqResult, error) {
	space, n := g.Space, len(g.Registers)
	stride := space.Stride()
	res := &SeqResult{Clock: clock}
	var slab []float64
	var forms []canon.Form
	view := func(i int) canon.View { return slab[i*stride : (i+1)*stride] }
	setup, hold := late.Scratch(), early.Scratch()
	worstSetup, worstHold := late.scratch2(), early.scratch2()
	if perReg {
		slab = make([]float64, (2*n+2)*stride)
		forms = make([]canon.Form, 2*n+2)
		worstSetup, worstHold = view(2*n), view(2*n+1)
		res.Regs = make([]RegSlack, 0, n)
	}

	capture := clock.PeriodPS - clock.SkewPS
	k := 0
	for i := range g.Registers {
		r := &g.Registers[i]
		if r.D < 0 || r.D >= g.NumVerts {
			return nil, fmt.Errorf("timing: register %q D vertex %d out of range", r.Name, r.D)
		}
		if !late.Reached(r.D) {
			// The D cone is cut off from every launch source (possible on
			// aggressively reduced models); the register is unconstrained.
			continue
		}
		if perReg {
			setup, hold = view(2*k), view(2*k+1)
		}
		setupSlack(setup, late.At(r.D), r.Setup, capture, clock.JitterPS)
		holdSlack(hold, early.At(r.D), r.Hold, clock.SkewPS, clock.JitterPS)
		if k == 0 {
			canon.CopyView(worstSetup, setup)
			canon.CopyView(worstHold, hold)
		} else {
			canon.MinViews(worstSetup, worstSetup, setup)
			canon.MinViews(worstHold, worstHold, hold)
		}
		if perReg {
			res.Regs = append(res.Regs, RegSlack{
				Name:  r.Name,
				Setup: setup.Alias(space, &forms[2*k]),
				Hold:  hold.Alias(space, &forms[2*k+1]),
			})
		}
		k++
	}
	if k == 0 {
		return nil, errors.New("timing: no register D pin reachable from any launch source")
	}
	if perReg {
		res.WorstSetup = worstSetup.Alias(space, &forms[2*n])
		res.WorstHold = worstHold.Alias(space, &forms[2*n+1])
	} else {
		res.WorstSetup, res.WorstHold = worstSetup.Form(space), worstHold.Form(space)
	}
	return res, nil
}

// setupSlack writes the setup slack (T - skew) - (arr + c) into dst: the
// data must beat the capture edge at T - skew by the setup requirement c.
// Jitter rides on the capture edge as an independent random term, RSS'd
// with the path and constraint randomness. The arithmetic is exactly that
// of canon.Sub(capture, canon.Add(arr, c)), whose capture form has zero
// shared coefficients: 0 - x keeps the sign of zero that -x would flip, and
// the private part squares the intermediate root rather than simplifying.
func setupSlack(dst, arr canon.View, c *canon.Form, capture, jitter float64) {
	d, g := len(dst)-1, 1+len(c.Glob)
	dst[0] = capture - (arr[0] + c.Nominal)
	for i, x := range c.Glob {
		dst[1+i] = 0 - (arr[1+i] + x)
	}
	for i, x := range c.Loc {
		dst[g+i] = 0 - (arr[g+i] + x)
	}
	r := math.Sqrt(arr[d]*arr[d] + c.Rand*c.Rand)
	dst[d] = math.Sqrt(jitter*jitter + r*r)
}

// holdSlack writes the hold slack arr - (skew + c) into dst: the earliest
// next-cycle data must stay beyond the hold requirement c after a capture
// edge that may arrive skew late, jitter again in the private part. The
// arithmetic is exactly that of canon.Sub(arr, canon.Add(edge, c)) with the
// edge form {skew, 0..., jitter}: 0 + x keeps that sum's sign of zero.
func holdSlack(dst, arr canon.View, c *canon.Form, skew, jitter float64) {
	d, g := len(dst)-1, 1+len(c.Glob)
	dst[0] = arr[0] - (skew + c.Nominal)
	for i, x := range c.Glob {
		dst[1+i] = arr[1+i] - (0 + x)
	}
	for i, x := range c.Loc {
		dst[g+i] = arr[g+i] - (0 + x)
	}
	r := math.Sqrt(jitter*jitter + c.Rand*c.Rand)
	dst[d] = math.Sqrt(arr[d]*arr[d] + r*r)
}

// SegMatrix holds the register-to-register path segmentation of a sequential
// graph: M[i][j] is the maximum statistical combinational delay from launch
// point i to capture point j (nil when no path exists). Launch points are
// the registers' Q outputs (excluding the clk->Q arc) followed by the
// primary inputs; capture points are the registers' D pins followed by the
// primary outputs.
type SegMatrix struct {
	LaunchNames  []string
	CaptureNames []string
	M            [][]*canon.Form
}

// RegToReg computes the path segmentation matrix with one exclusive forward
// pass per launch point, fanned out over workers (<=0 means GOMAXPROCS) —
// the sequential analogue of AllPairsDelays.
func (g *Graph) RegToReg(workers int) (*SegMatrix, error) {
	if !g.Sequential() {
		return nil, errors.New("timing: graph has no registers")
	}
	if _, err := g.frontier(); err != nil {
		return nil, err
	}
	g.EdgeDelays() // build the flat delay bank before fanning out

	launches := make([]int, 0, len(g.Registers)+len(g.Inputs))
	launchNames := make([]string, 0, cap(launches))
	for _, r := range g.Registers {
		if r.Q < 0 {
			continue // extracted-model register: Q vertex reduced away
		}
		launches = append(launches, r.Q)
		launchNames = append(launchNames, r.Name)
	}
	for i, in := range g.Inputs {
		launches = append(launches, in)
		launchNames = append(launchNames, g.InputNames[i])
	}
	captures := make([]int, 0, len(g.Registers)+len(g.Outputs))
	captureNames := make([]string, 0, cap(captures))
	for _, r := range g.Registers {
		captures = append(captures, r.D)
		captureNames = append(captureNames, r.Name)
	}
	for j, out := range g.Outputs {
		captures = append(captures, out)
		captureNames = append(captureNames, g.OutputNames[j])
	}

	sm := &SegMatrix{
		LaunchNames:  launchNames,
		CaptureNames: captureNames,
		M:            make([][]*canon.Form, len(launches)),
	}
	err := ParallelFor(len(launches), workers, func(i int) error {
		p, err := g.acquireFrontier()
		if err != nil {
			return err
		}
		defer p.Release()
		if err := p.Arrivals(launches[i]); err != nil {
			return err
		}
		row := make([]*canon.Form, len(captures))
		for j, cpt := range captures {
			if cpt == launches[i] {
				continue // zero-length self segment carries no information
			}
			row[j] = p.Form(cpt)
		}
		sm.M[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}
