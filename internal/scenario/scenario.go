// Package scenario implements the multi-corner/multi-scenario (MCMM) sweep
// engine. The paper's argument is that SSTA replaces exponentially many
// process corners with one statistical pass; a production signoff still
// runs that one pass under many *operating scenarios* — voltage/temperature
// modes, derates, aging margins, per-mode wire loads, module variants. A
// Scenario describes one such named transform of a timing graph, and the
// sweep engine evaluates many scenarios against one shared preparation:
// the graph is built (or the hierarchical design partitioned, PCA'd and
// stitched) exactly once, and each scenario only rescales the flat
// edge-delay bank in place-free fashion (canon.ScalePartsView) and re-runs
// the propagation kernel over it.
//
// Every scenario transform is linear per canonical-form component, so a
// scenario result is numerically identical (1e-9, in practice bitwise) to
// analyzing a graph whose edge delays were explicitly transformed edge by
// edge — see TransformGraph and the package tests.
package scenario

import (
	"fmt"

	"repro/internal/canon"
	"repro/internal/hier"
	"repro/internal/timing"
)

// Scenario is one named transform of a timing graph or hierarchical
// design. All factor fields are multipliers with the convention that zero
// means "unset" (treated as 1), so the zero value is the identity
// scenario; set factors must be positive.
type Scenario struct {
	// Name labels the scenario in reports. Empty names are defaulted to
	// "scenario-<index>" by the sweep.
	Name string

	// Derate multiplies every edge delay — nominal and all variation
	// components — like canon.Form.Scale: a global timing derate.
	Derate float64

	// CellScale multiplies only cell-arc edges (edges carrying variation
	// data: structural sensitivities or nonzero stochastic components);
	// NetScale multiplies only deterministic edges (stitched wire delays).
	// Together they are the per-edge-class derates of an MCMM setup where
	// cells and interconnect age or derate differently.
	CellScale float64
	NetScale  float64

	// EdgeScales multiplies specific edges by index, on top of the class
	// factors — per-cell overrides.
	EdgeScales map[int]float64

	// GlobSigma, LocSigma and RandSigma multiply the global, spatially
	// correlated and purely random variation components respectively,
	// leaving the nominal untouched — sigma margins per variation class.
	GlobSigma float64
	LocSigma  float64
	RandSigma float64

	// ClockPeriodPS, ClockSkewPS and ClockJitterPS set the clock the
	// scenario's setup/hold analysis runs against on sequential graphs
	// (frequency corners, skew margins, jitter budgets). Zero means unset:
	// the period defaults to timing.DefaultClockPeriodPS, skew and jitter to
	// zero. The knobs are pure slack-side parameters — they do not touch the
	// edge-delay bank, so clock scenarios share the base prep (and the base
	// bank, when the rescale knobs are identity). Combinational graphs
	// ignore them.
	ClockPeriodPS float64
	ClockSkewPS   float64
	ClockJitterPS float64

	// Swaps replaces instance modules by name (hierarchical sweeps only).
	// A scenario with swaps changes the design structure, so it cannot
	// share the stitched top graph: it pays its own stitch on a private
	// structural copy of the design (model extraction for the incoming
	// module remains the caller's job, through the shared ExtractCache).
	Swaps map[string]*hier.Module
}

// factor maps the zero-means-unset convention onto a concrete multiplier.
func factor(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

// Validate rejects non-positive factors (zero fields mean "unset" and are
// fine; explicit negatives or NaN-ish inputs are caller bugs).
func (s *Scenario) Validate() error {
	check := func(name string, v float64) error {
		if v != 0 && !(v > 0) {
			return fmt.Errorf("scenario %q: %s %g must be positive", s.Name, name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"derate", s.Derate}, {"cell_scale", s.CellScale}, {"net_scale", s.NetScale},
		{"glob_sigma", s.GlobSigma}, {"loc_sigma", s.LocSigma}, {"rand_sigma", s.RandSigma},
		{"clock_period_ps", s.ClockPeriodPS},
		{"clock_skew_ps", s.ClockSkewPS}, {"clock_jitter_ps", s.ClockJitterPS},
	} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	for ei, v := range s.EdgeScales {
		if !(v > 0) {
			return fmt.Errorf("scenario %q: edge %d scale %g must be positive", s.Name, ei, v)
		}
	}
	return nil
}

// ClockSpec assembles the scenario's clock for setup/hold analysis;
// unset knobs keep the timing package defaults.
func (s *Scenario) ClockSpec() timing.ClockSpec {
	return timing.ClockSpec{
		PeriodPS: s.ClockPeriodPS,
		SkewPS:   s.ClockSkewPS,
		JitterPS: s.ClockJitterPS,
	}
}

// Identity reports whether the scenario leaves the graph untouched (swaps
// aside) — such scenarios propagate over the shared base bank directly.
// Clock knobs never break identity: they parameterize only the slack
// computation, not the delay bank.
func (s *Scenario) Identity() bool {
	return factor(s.Derate) == 1 && factor(s.CellScale) == 1 && factor(s.NetScale) == 1 &&
		factor(s.GlobSigma) == 1 && factor(s.LocSigma) == 1 && factor(s.RandSigma) == 1 &&
		len(s.EdgeScales) == 0
}

// cellEdge classifies an edge: cell arcs carry variation data (structural
// local sensitivities or nonzero stochastic components), stitched wire
// edges are deterministic constants.
func cellEdge(e *timing.Edge) bool {
	if e.LSens != nil {
		return true
	}
	if e.Delay.Rand != 0 {
		return true
	}
	for _, v := range e.Delay.Glob {
		if v != 0 {
			return true
		}
	}
	for _, v := range e.Delay.Loc {
		if v != 0 {
			return true
		}
	}
	return false
}

// edgeFactor returns the all-components multiplier for edge ei of class
// cell (the sigma multipliers are handled separately).
func (s *Scenario) edgeFactor(ei int, cell bool) float64 {
	k := factor(s.Derate)
	if cell {
		k *= factor(s.CellScale)
	} else {
		k *= factor(s.NetScale)
	}
	if v, ok := s.EdgeScales[ei]; ok {
		k *= v
	}
	return k
}

// scaleBank writes the scenario-scaled image of the base delay bank into
// dst (slot per edge index). Every slot is written, tombstoned edges
// included: dst may be a recycled, unzeroed pool slab.
func (s *Scenario) scaleBank(g *timing.Graph, base, dst *canon.Bank) {
	nGlob := g.Space.Globals
	gs, ls, rs := factor(s.GlobSigma), factor(s.LocSigma), factor(s.RandSigma)
	for ei := range g.Edges {
		e := &g.Edges[ei]
		k := s.edgeFactor(ei, cellEdge(e))
		canon.ScalePartsView(dst.View(ei), base.View(ei), nGlob, k, gs, ls, rs)
	}
}

// TransformForm returns the scenario's image of one edge delay form, using
// the exact arithmetic of the in-bank kernel (canon.ScalePartsView) so a
// form-by-form transformed graph reproduces the sweep bit for bit. ei and
// cell identify the edge for the class and per-edge factors.
func (s *Scenario) TransformForm(space canon.Space, ei int, cell bool, f *canon.Form) *canon.Form {
	k := s.edgeFactor(ei, cell)
	gs, ls, rs := factor(s.GlobSigma), factor(s.LocSigma), factor(s.RandSigma)
	out := space.NewForm()
	out.Nominal = f.Nominal * k
	kg := k * gs
	for i, v := range f.Glob {
		out.Glob[i] = v * kg
	}
	kl := k * ls
	for i, v := range f.Loc {
		out.Loc[i] = v * kl
	}
	kr := k * rs
	if kr < 0 {
		kr = -kr
	}
	out.Rand = f.Rand * kr
	return out
}

// TransformEdge is TransformForm against a live graph edge, classifying it
// itself — the hook the session layer uses to mirror edits into scenario
// graphs.
func (s *Scenario) TransformEdge(space canon.Space, ei int, e *timing.Edge) *canon.Form {
	return s.TransformForm(space, ei, cellEdge(e), e.Delay)
}

// TransformGraph returns an independent clone of g whose edge delays (and
// structural local sensitivities, so Monte Carlo stays sampleable) are the
// scenario's image of the originals — the explicit materialization of what
// the sweep computes via bank rescaling. Used by the differential tests
// and by sessions that maintain per-scenario incremental state.
func (s *Scenario) TransformGraph(g *timing.Graph) *timing.Graph {
	ng := g.Clone()
	if s.Identity() {
		return ng
	}
	ls := factor(s.LocSigma)
	for ei := range ng.Edges {
		e := &ng.Edges[ei]
		if e.Removed {
			continue
		}
		cell := cellEdge(e)
		e.Delay = s.TransformForm(ng.Space, ei, cell, e.Delay)
		if e.LSens != nil {
			k := s.edgeFactor(ei, cell) * ls
			sens := make([]float64, len(e.LSens))
			for i, v := range e.LSens {
				sens[i] = v * k
			}
			e.LSens = sens
		}
	}
	return ng
}
