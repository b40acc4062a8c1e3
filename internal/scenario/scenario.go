// Package scenario implements the multi-corner/multi-scenario (MCMM) sweep
// engine. The paper's argument is that SSTA replaces exponentially many
// process corners with one statistical pass; a production signoff still
// runs that one pass under many *operating scenarios* — voltage/temperature
// modes, derates, aging margins, per-mode wire loads, module variants. A
// Scenario describes one such named transform of a timing graph, and the
// sweep engine evaluates many scenarios against one shared preparation:
// the graph is built (or the hierarchical design partitioned, PCA'd and
// stitched) and its flat edge-delay bank filled exactly once, and each
// scenario re-runs the propagation walker over that one bank with a
// per-edge factor and per-block sigma multipliers (timing.Scale) that the
// walker's gather applies to each delay as it reads it
// (canon.AddScaledViews). No scaled copy of the bank is ever written.
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

// MaxKnob caps every scenario factor and clock value (ps). Delays are
// hundreds of picoseconds with sigmas of a few; a knob beyond a million is
// a typo, not a corner, and much larger ones overflow the variances of the
// scaled forms to +Inf, which turns every statistic into NaN or a silently
// wrong Clark max.
const MaxKnob = 1e6

// Validate rejects factors and clock values that are negative, NaN, or
// above MaxKnob (+Inf included); zero fields mean "unset" and are fine.
// Per-edge scales must be positive and at most MaxKnob.
func (s *Scenario) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"derate", s.Derate}, {"cell_scale", s.CellScale}, {"net_scale", s.NetScale},
		{"glob_sigma", s.GlobSigma}, {"loc_sigma", s.LocSigma}, {"rand_sigma", s.RandSigma},
		{"clock_period_ps", s.ClockPeriodPS},
		{"clock_skew_ps", s.ClockSkewPS}, {"clock_jitter_ps", s.ClockJitterPS},
	} {
		if c.v != 0 && !(c.v > 0 && c.v <= MaxKnob) {
			return fmt.Errorf("scenario %q: %s %g must be positive and at most %g", s.Name, c.name, c.v, MaxKnob)
		}
	}
	for ei, v := range s.EdgeScales {
		if !(v > 0 && v <= MaxKnob) {
			return fmt.Errorf("scenario %q: edge %d scale %g must be positive and at most %g", s.Name, ei, v, MaxKnob)
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

// scale fills edge with every edge's edgeFactor — the same products in the
// same order, the per-edge scales applied last — and returns the walker's
// rescale of the scenario. cell is cellEdge of every edge of the graph
// (classify); every EdgeScales key must index it (CheckEdges).
func (s *Scenario) scale(cell []bool, edge []float64) timing.Scale {
	d := factor(s.Derate)
	kc, kn := d*factor(s.CellScale), d*factor(s.NetScale)
	for ei, c := range cell {
		if c {
			edge[ei] = kc
		} else {
			edge[ei] = kn
		}
	}
	for ei, v := range s.EdgeScales {
		edge[ei] *= v
	}
	return timing.Scale{Edge: edge, Glob: factor(s.GlobSigma), Loc: factor(s.LocSigma), Rand: factor(s.RandSigma)}
}

// CheckEdges rejects EdgeScales keys that index no edge of g, the graph
// the scenario runs on.
func (s *Scenario) CheckEdges(g *timing.Graph) error {
	for ei := range s.EdgeScales {
		if ei < 0 || ei >= len(g.Edges) {
			return fmt.Errorf("scenario %q: edge_scales key %d is outside the graph's edges [0, %d)", s.Name, ei, len(g.Edges))
		}
	}
	return nil
}

// TransformForm returns the scenario's image of one edge delay form: the
// products the sweep's fused gather (canon.AddScaledViews) forms as it
// reads the edge, so a form-by-form transformed graph reproduces the sweep
// bit for bit. ei and cell identify the edge for the class and per-edge
// factors.
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
// the sweep's walker computes by rescaling each delay as it reads it. Used
// by the differential tests and by sessions that maintain per-scenario
// incremental state.
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
