package hier

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/timing"
)

// Session is a live, mutable hierarchical design: the stitched top-level
// graph plus the per-instance units it was committed from — the
// design-level partition/PCA, one replacement matrix per instance, and
// each instance's rewritten (design-space) edges and register constraints.
// Swapping or re-characterizing a single instance re-derives only that
// instance's units, and the top graph is recommitted through the same
// commit step Analyze and Stitch use, so a session answers exactly what a
// fresh Stitch of its design answers. Model re-extraction for the incoming
// module is the caller's job (through the shared ExtractCache), which is
// what keeps an ECO's cost proportional to the changed module, not the
// design.
//
// The session owns its Design (callers hand over a private copy, e.g. from
// CopyStructure) and its top graph, which is private to the session and
// never enters the design's stitch cache. It is not safe for concurrent
// use; the ssta session layer serializes access.
type Session struct {
	d    *Design
	mode Mode
	opt  AnalyzeOptions

	pp      *prep
	rw      []instRewrite // unscaled design-space rewrite per instance
	top     *timing.Graph
	netBase int // top edge index of design net 0
}

// NewSession builds the per-instance prep and commits the initial top
// graph. The design is owned by the session afterwards.
func NewSession(ctx context.Context, d *Design, mode Mode, opt AnalyzeOptions) (*Session, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	s := &Session{d: d, mode: mode, opt: opt}
	pp, rw, err := s.deriveAll(ctx)
	if err == nil {
		err = s.commit(ctx, pp, rw)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Graph returns the live stitched top-level graph. Edge-level edits through
// the timing edit API apply directly to it; the session replaces the graph
// object on recommit (after SwapModule), so callers must re-fetch it then.
func (s *Session) Graph() *timing.Graph { return s.top }

// Design returns the session-owned design.
func (s *Session) Design() *Design { return s.d }

// Mode returns the correlation mode the session was built with.
func (s *Session) Mode() Mode { return s.mode }

// NetEdge returns the top-graph edge index carrying design net i.
func (s *Session) NetEdge(i int) (int, error) {
	if i < 0 || i >= len(s.d.Nets) {
		return 0, fmt.Errorf("hier: net index %d out of range (%d nets)", i, len(s.d.Nets))
	}
	return s.netBase + i, nil
}

// SetNetDelay changes the constant wire delay of design net i, updating
// both the design description (so later recommits keep it) and the live
// top-graph edge (so the incremental propagation sees it as a dirty seed).
func (s *Session) SetNetDelay(i int, ps float64) error {
	ei, err := s.NetEdge(i)
	if err != nil {
		return err
	}
	if !(ps >= 0) {
		return fmt.Errorf("hier: net delay %g must be non-negative", ps)
	}
	if err := s.top.SetEdgeDelay(ei, s.pp.space.Const(ps)); err != nil {
		return err
	}
	s.d.Nets[i].Delay = ps
	return nil
}

// SwapModule replaces the module of one instance — the paper's ECO case.
// For a same-footprint swap (identical NX/NY/pitch, the abutted-IP
// scenario) the design-level partition and PCA survive untouched, only the
// swapped instance's replacement matrix and rewrite are recomputed, and the
// top graph is recommitted from the per-instance rewrites. A footprint
// change falls back to a full re-prep inside the session.
//
// The swap is transactional: every fallible step — validation, the
// rewrite, the commit — builds fresh values, and session state is replaced
// only once all of them succeeded. On any error (cancellation included)
// the instance keeps its old module and the previous top graph keeps
// serving. On success the top graph is a new object; callers holding
// incremental propagation state must rebase onto Graph().
func (s *Session) SwapModule(ctx context.Context, name string, m *Module) error {
	inst, i, err := s.d.instance(name)
	if err != nil {
		return err
	}
	if m == nil || m.Model == nil || m.Model.Graph == nil {
		return errors.New("hier: nil replacement module")
	}
	old := inst.Module
	inst.Module = m
	if err := s.swap(ctx, i, old); err != nil {
		inst.Module = old
		return err
	}
	return nil
}

// swap derives the prep and rewrites for instance i's new module (old is
// the module it replaces) and commits them.
func (s *Session) swap(ctx context.Context, i int, old *Module) error {
	if err := s.d.Validate(); err != nil {
		return err
	}
	m := s.d.Instances[i].Module
	fullReprep := m.NX != old.NX || m.NY != old.NY || m.Pitch != old.Pitch
	nInst := len(s.d.Instances)
	pp := s.pp
	if !fullReprep && s.mode == GlobalOnly {
		nP := len(s.d.Params)
		start := make([]int, nInst+1)
		for j, in := range s.d.Instances {
			start[j+1] = start[j] + nP*in.Module.gridModel().Comps
		}
		if start[nInst] != s.pp.instLocStart[nInst] {
			// Component count changed: the private-block space itself is
			// different, every instance's block offsets move.
			fullReprep = true
		} else {
			cp := *s.pp
			cp.instLocStart = start
			pp = &cp
		}
	}
	if fullReprep {
		// Footprint or space change: the heterogeneous partition itself
		// moves, every instance re-derives.
		pp, rw, err := s.deriveAll(ctx)
		if err != nil {
			return err
		}
		return s.commit(ctx, pp, rw)
	}
	if s.mode == FullCorrelation && m.gridModel() != old.gridModel() {
		r, err := replacementMatrix(m.gridModel(), s.pp.part, i)
		if err != nil {
			return fmt.Errorf("hier: instance %q: %w", s.d.Instances[i].Name, err)
		}
		cp := *s.pp
		cp.repl = slices.Clone(s.pp.repl)
		cp.repl[i] = r
		pp = &cp
	}
	rw := slices.Clone(s.rw)
	if err := s.d.rewriteInstances(ctx, pp, false, s.opt.Workers, []int{i}, rw); err != nil {
		return err
	}
	return s.commit(ctx, pp, rw)
}

// deriveAll computes the full prep and every instance's rewrite into fresh
// values, leaving session state untouched.
func (s *Session) deriveAll(ctx context.Context) (*prep, []instRewrite, error) {
	pp, err := s.d.computePrep(ctx, s.mode, s.opt.Workers)
	if err != nil {
		return nil, nil, err
	}
	rw := make([]instRewrite, len(s.d.Instances))
	if err := s.d.rewriteInstances(ctx, pp, false, s.opt.Workers, nil, rw); err != nil {
		return nil, nil, err
	}
	return pp, rw, nil
}

// commit stitches a fresh top graph from pp and rw and, only on success,
// makes the three the session's state.
func (s *Session) commit(ctx context.Context, pp *prep, rw []instRewrite) error {
	top, err := s.d.commit(ctx, pp, false, s.opt.Workers, rw)
	if err != nil {
		return err
	}
	s.pp, s.rw, s.top = pp, rw, top
	s.netBase = len(top.Edges) - len(s.d.Nets)
	return nil
}
