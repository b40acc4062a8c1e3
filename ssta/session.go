package ssta

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/scenario"
	"repro/internal/timing"
)

// EditOp enumerates the supported session edits.
type EditOp int

const (
	// EditScaleDelay multiplies every component of an edge's delay form by
	// Scale (> 0) — a resized driver or re-bought cell.
	EditScaleDelay EditOp = iota
	// EditSetDelay replaces an edge's delay form with Delay.
	EditSetDelay
	// EditSetNominal replaces only the mean of an edge's delay with Value
	// (ps), keeping its sensitivities.
	EditSetNominal
	// EditAddEdge adds a new edge From -> To. Delay supplies the form; a nil
	// Delay means a deterministic delay of Value ps.
	EditAddEdge
	// EditRemoveEdge tombstones edge Edge.
	EditRemoveEdge
	// EditRetargetIO redeclares the graph's inputs/outputs from the
	// Inputs/Outputs/InNames/OutNames fields.
	EditRetargetIO
	// EditSetNetDelay sets the wire delay of design net Net to Value ps
	// (hierarchical sessions only).
	EditSetNetDelay
	// EditSwapModule replaces instance Instance's module with Module
	// (hierarchical sessions only) — the paper's ECO case.
	EditSwapModule
)

// String names the op for error messages and logs.
func (op EditOp) String() string {
	switch op {
	case EditScaleDelay:
		return "scale_delay"
	case EditSetDelay:
		return "set_delay"
	case EditSetNominal:
		return "set_nominal"
	case EditAddEdge:
		return "add_edge"
	case EditRemoveEdge:
		return "remove_edge"
	case EditRetargetIO:
		return "retarget_io"
	case EditSetNetDelay:
		return "set_net_delay"
	case EditSwapModule:
		return "swap_module"
	default:
		return fmt.Sprintf("EditOp(%d)", int(op))
	}
}

// Edit is one element of a session edit batch. Which fields apply depends
// on Op (see the op constants).
type Edit struct {
	Op       EditOp
	Edge     int
	Scale    float64
	Value    float64
	Delay    *Form
	From, To int
	Net      int
	Instance string
	Module   *Module

	Inputs, Outputs   []int
	InNames, OutNames []string
}

// EditReport is the outcome of one applied edit batch.
type EditReport struct {
	// Delay is the post-edit statistical circuit delay.
	Delay *Form
	// Applied counts the edits applied (== len(edits) on success).
	Applied int
	// Recomputed is the number of vertices whose arrival was re-propagated;
	// TotalVerts the graph size — their ratio is the incremental win.
	Recomputed int
	TotalVerts int
	// FullReprop marks a full re-propagation (module swap, metadata
	// overflow or recovery) instead of a dirty-cone sweep.
	FullReprop bool
	// Sweep is the re-evaluated active MCMM sweep, when one is installed
	// (see Session.SetSweep); nil otherwise.
	Sweep *SweepReport
	// Criticality is the refreshed all-pairs edge-criticality snapshot when
	// criticality tracking is enabled (see Session.EnableCriticality); nil
	// otherwise.
	Criticality *CriticalityResult
	// CritStats reports what the criticality refresh recomputed (zero when
	// tracking is off).
	CritStats CriticalityRefreshStats
	Elapsed   time.Duration
}

// ReanalysisError marks a failure of the post-edit re-analysis itself —
// an incremental update or a full rebuild — as opposed to an edit that
// failed validation. Callers (the serving layer) use it to tell
// server-side faults apart from bad client input; it unwraps, so errors.Is
// still detects cancellation underneath.
type ReanalysisError struct{ Err error }

func (e *ReanalysisError) Error() string { return "ssta: re-analysis: " + e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ReanalysisError) Unwrap() error { return e.Err }

// Session is a stateful analysis handle: one full analysis at creation,
// incremental cost per edit batch thereafter. A session owns a private
// clone of its graph (and, for hierarchical sessions, of its design), so
// edits never leak into caches or other sessions. All methods are safe for
// concurrent use; edits are serialized internally.
type Session struct {
	mu    sync.Mutex
	graph *Graph
	inc   *timing.Incremental
	hs    *hier.Session
	delay *Form
	sweep *sessionSweep

	// restoredFlat marks a session rebuilt from a hierarchical snapshot:
	// the stitched top graph and sweep are intact, but the design
	// structure is gone, so design-level edits (set_net_delay,
	// swap_module) need a session recreate.
	restoredFlat bool

	// Criticality tracking (see EnableCriticality). crit is nil while
	// tracking is off, and also after a failed refresh — critOn then forces
	// a from-scratch rebuild at the next refresh.
	crit    *core.IncrementalCriticality
	critOpt CriticalityOptions
	critOn  bool

	// gen counts changes to the sweep and criticality settings, which a
	// delta checkpoint cannot carry; baseGen is its value at the last
	// CheckpointBase (see persist.go).
	gen, baseGen uint64
}

// sessionSweep is the per-session MCMM sweep state: one transformed clone
// of the session graph per scenario, each with its own persistent
// incremental propagation state. Every edit applied to the session graph
// is mirrored into each scenario clone (the transform is linear per
// component, so mirroring commutes with editing), and the post-edit
// re-analysis re-propagates only the dirty cones per scenario.
type sessionSweep struct {
	scens  []Scenario
	opt    SweepOptions
	graphs []*Graph
	incs   []*timing.Incremental
	report *SweepReport
	// stale forces a full rebuild at the next refresh (set after a module
	// swap restitch, a mirror failure, or an interrupted sweep update).
	stale bool
}

// NewGraphSession starts a session over a private clone of the given flat
// timing graph, paying one full propagation.
func (f *Flow) NewGraphSession(ctx context.Context, g *Graph) (*Session, error) {
	cl := g.Clone()
	inc, err := cl.NewIncrementalCtx(ctx)
	if err != nil {
		return nil, err
	}
	delay, err := inc.MaxDelay()
	if err != nil {
		return nil, err
	}
	return &Session{graph: cl, inc: inc, delay: delay}, nil
}

// NewDesignSession starts a session over a private structural copy of the
// given hierarchical design: the per-instance prep is computed and the top
// graph stitched and fully propagated once; subsequent edits (net delays,
// module swaps) pay incremental cost.
func (f *Flow) NewDesignSession(ctx context.Context, d *Design, mode Mode, opt AnalyzeOptions) (*Session, error) {
	hs, err := hier.NewSession(ctx, d.CopyStructure(), mode, opt)
	if err != nil {
		return nil, err
	}
	g := hs.Graph()
	inc, err := g.NewIncrementalCtx(ctx)
	if err != nil {
		return nil, err
	}
	delay, err := inc.MaxDelay()
	if err != nil {
		return nil, err
	}
	return &Session{graph: g, inc: inc, hs: hs, delay: delay}, nil
}

// Hierarchical reports whether the session wraps a hierarchical design.
func (s *Session) Hierarchical() bool { return s.hs != nil }

// Delay returns the current statistical circuit delay.
func (s *Session) Delay() *Form {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delay
}

// SessionInfo is a consistent snapshot of session state.
type SessionInfo struct {
	Delay        *Form
	Verts, Edges int
	Hier         bool
	// RestoredFlat marks a session that was checkpointed as hierarchical
	// and restored flat: delays and sweep state are exact, but
	// design-structure edits are no longer available.
	RestoredFlat bool
}

// Info snapshots the session.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		Delay: s.delay, Verts: s.graph.NumVerts, Edges: len(s.graph.Edges),
		Hier: s.hs != nil, RestoredFlat: s.restoredFlat,
	}
}

// RestoredFlat reports whether this session came from a hierarchical
// snapshot and therefore lost its design structure on restore.
func (s *Session) RestoredFlat() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoredFlat
}

// Graph returns the live graph (the stitched top for hierarchical
// sessions). Treat it as read-only; all mutation goes through Apply.
func (s *Session) Graph() *Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph
}

// Design returns the session-owned design, or nil for flat sessions.
func (s *Session) Design() *Design {
	if s.hs == nil {
		return nil
	}
	return s.hs.Design()
}

// Apply applies an edit batch in order and re-analyzes incrementally:
// arrival times are re-propagated only through the union of the edits'
// dirty cones (a module swap re-derives the swapped instance, recommits
// the top graph and re-propagates fully). On error, edits already applied
// stay applied and the session state is re-synced before returning, so the
// session remains usable; the error names the failing edit, and the report
// is returned alongside it with Applied set, so callers can tell a
// partially applied batch from nothing-happened — blindly resending the
// same batch would double-apply its valid prefix.
func (s *Session) Apply(ctx context.Context, edits []Edit) (*EditReport, error) {
	return s.ApplyObserved(ctx, edits, nil)
}

// ApplyObserved is Apply with a per-scenario completion observer for the
// active sweep: when a sweep is installed, obs is invoked once per scenario
// as its refreshed result becomes final — including error results when the
// refresh is cut off mid-sweep — so streaming callers can deliver partial
// sweep output instead of waiting for the whole report. obs runs with the
// session mutex held and may be called from sweep worker goroutines (during
// a full rebuild); it must not call back into the session. It composes with
// the sweep's own SweepOptions.OnScenarioDone hook, which fires first.
func (s *Session) ApplyObserved(ctx context.Context, edits []Edit, obs func(i int, r *ScenarioResult)) (*EditReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	restitched := false
	var applyErr error
	applied := 0
	for k := range edits {
		if err := s.applyOne(ctx, &edits[k], &restitched); err != nil {
			applyErr = fmt.Errorf("ssta: edit %d (%s): %w", k, edits[k].Op, err)
			break
		}
		// Keep the scenario clones of an active sweep in lockstep with the
		// session graph; a mirror failure degrades to a full sweep rebuild
		// at refresh, never to divergent state.
		s.mirrorEdit(&edits[k])
		applied++
	}
	rep, err := s.refresh(ctx, restitched, obs)
	rep.Applied = applied
	rep.Elapsed = time.Since(start)
	if err != nil {
		// A failed re-analysis is a fault in its own right even when an edit
		// already failed validation: join the two so the classification
		// (cancellation, server fault) survives alongside the edit error.
		err = &ReanalysisError{Err: err}
		if applyErr != nil {
			err = errors.Join(applyErr, err)
		}
		return rep, err
	}
	if applyErr != nil {
		return rep, applyErr
	}
	return rep, nil
}

// CheckOp reports whether the session takes edits of kind op. Edge-level
// ops are the flat-session vocabulary. On a hierarchical session the top
// graph is derived state — recommitted from the design and the
// per-instance rewrites on every module swap — so ad-hoc edge edits against
// it would silently vanish at the next swap; hierarchical edits go through
// the design (set_net_delay, swap_module). For the same reason a module
// swap is refused while the active sweep has a scenario with EdgeScales:
// the swap renumbers the top graph's edges, so the keys would silently
// point at other edges or none. Apply checks every edit; callers may check
// first to skip materializing an edit the session would reject, such as a
// swap's model extraction.
func (s *Session) CheckOp(op EditOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkOp(op)
}

// checkOp is CheckOp with s.mu held.
func (s *Session) checkOp(op EditOp) error {
	switch op {
	case EditSetNetDelay:
		if s.hs == nil {
			return fmt.Errorf("net edits require a hierarchical session")
		}
	case EditSwapModule:
		if s.hs == nil {
			return fmt.Errorf("module swaps require a hierarchical session")
		}
		if s.sweep != nil {
			for i := range s.sweep.scens {
				if sc := &s.sweep.scens[i]; len(sc.EdgeScales) > 0 {
					return fmt.Errorf("scenario %q scales edges by index (edge_scales) and a module swap renumbers the top graph's edges; recreate the session to swap", sc.Name)
				}
			}
		}
	case EditScaleDelay, EditSetDelay, EditSetNominal, EditAddEdge, EditRemoveEdge, EditRetargetIO:
		if s.hs != nil {
			return fmt.Errorf("edge edits apply to flat sessions only; hierarchical sessions take set_net_delay and swap_module")
		}
	}
	return nil
}

func (s *Session) applyOne(ctx context.Context, e *Edit, restitched *bool) error {
	if err := s.checkOp(e.Op); err != nil {
		return err
	}
	switch e.Op {
	case EditScaleDelay:
		return s.graph.ScaleEdgeDelay(e.Edge, e.Scale)
	case EditSetDelay:
		return s.graph.SetEdgeDelay(e.Edge, e.Delay)
	case EditSetNominal:
		return s.graph.SetEdgeNominal(e.Edge, e.Value)
	case EditAddEdge:
		delay := e.Delay
		if delay == nil {
			delay = s.graph.Space.Const(e.Value)
		}
		_, err := s.graph.AddEdgeLive(e.From, e.To, delay, nil, 0)
		return err
	case EditRemoveEdge:
		return s.graph.RemoveEdge(e.Edge)
	case EditRetargetIO:
		return s.graph.RetargetIO(e.Inputs, e.Outputs, e.InNames, e.OutNames)
	case EditSetNetDelay:
		return s.hs.SetNetDelay(e.Net, e.Value)
	case EditSwapModule:
		if err := s.hs.SwapModule(ctx, e.Instance, e.Module); err != nil {
			return err
		}
		*restitched = true
		s.graph = s.hs.Graph()
		return nil
	default:
		return fmt.Errorf("unknown edit op %d", int(e.Op))
	}
}

// refresh re-syncs the incremental state with the (possibly restitched)
// graph and folds the new delay. obs, when non-nil, observes per-scenario
// sweep results as they finalize (see ApplyObserved).
func (s *Session) refresh(ctx context.Context, restitched bool, obs func(int, *ScenarioResult)) (*EditReport, error) {
	rep := &EditReport{TotalVerts: s.graph.NumVerts}
	// Rebuild on graph identity, not the restitched flag alone: a previous
	// refresh may have swapped s.graph in and then failed (a client timeout
	// firing during the full re-propagation is the likely cause) before
	// s.inc was rebuilt, leaving it bound to the discarded graph.
	graphChanged := restitched || s.inc == nil || s.inc.Graph() != s.graph
	if graphChanged {
		// Drop the stale state before the fallible rebuild so a failure here
		// can never leave the session silently serving pre-swap delays.
		s.inc = nil
		inc, err := s.graph.NewIncrementalCtx(ctx)
		if err != nil {
			return rep, err
		}
		s.inc = inc
		rep.Recomputed = s.graph.NumVerts
		rep.FullReprop = true
	} else {
		st, err := s.inc.Update(ctx)
		if err != nil {
			return rep, err
		}
		rep.Recomputed = st.Forward
		rep.FullReprop = st.Full
	}
	delay, err := s.inc.MaxDelay()
	if err != nil {
		return rep, err
	}
	s.delay = delay
	rep.Delay = delay
	// Re-evaluate the active sweep last: the main state above is already
	// consistent, so a sweep failure (cancellation mid-update) surfaces as
	// a re-analysis error while the session itself stays usable — the sweep
	// is marked stale and fully rebuilt on the next refresh.
	if s.sweep != nil {
		if err := s.refreshSweep(ctx, graphChanged, obs); err != nil {
			return rep, err
		}
		rep.Sweep = s.sweep.report
	}
	// Criticality tracking rides behind the incremental update: the seed
	// journal now covers every edit of this batch. A replaced graph (or a
	// previously failed refresh) rebuilds the tracker from scratch against
	// the fresh incremental state; otherwise only the affected input rows
	// are re-derived. A failure degrades the same way the sweep does: the
	// session stays usable, the tracker rebuilds on the next refresh.
	if s.critOn {
		if graphChanged || s.crit == nil {
			s.crit = nil
			ic, err := core.NewIncrementalCriticality(ctx, s.inc, s.critOpt)
			if err != nil {
				return rep, err
			}
			s.crit = ic
			rep.Criticality = ic.Result()
			rep.CritStats = CriticalityRefreshStats{
				Inputs: len(s.graph.Inputs), Outputs: len(s.graph.Outputs), Full: true,
			}
		} else {
			res, cst, err := s.crit.Refresh(ctx)
			if err != nil {
				s.crit = nil
				return rep, err
			}
			rep.Criticality = res
			rep.CritStats = cst
		}
	}
	return rep, nil
}

// EnableCriticality turns on per-edit criticality tracking: one full
// all-pairs criticality run now, then every Apply refreshes only the input
// rows its edits can affect and reports the snapshot in
// EditReport.Criticality. Hierarchical sessions are supported, but a module
// swap replaces the top graph wholesale and falls back to a full recompute.
// The initial result is returned.
func (s *Session) EnableCriticality(ctx context.Context, opt CriticalityOptions) (*CriticalityResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inc == nil || s.inc.Graph() != s.graph {
		return nil, errors.New("ssta: session has no consistent incremental state; apply an edit batch to recover first")
	}
	ic, err := core.NewIncrementalCriticality(ctx, s.inc, opt)
	if err != nil {
		return nil, err
	}
	s.crit, s.critOpt, s.critOn = ic, opt, true
	s.gen++
	return ic.Result(), nil
}

// DisableCriticality drops criticality tracking and its retained rows.
func (s *Session) DisableCriticality() {
	s.mu.Lock()
	s.crit, s.critOn = nil, false
	s.gen++
	s.mu.Unlock()
}

// Criticality returns the tracked criticality snapshot as of the last edit
// batch (or EnableCriticality), or nil when tracking is off or the last
// refresh failed.
func (s *Session) Criticality() *CriticalityResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crit == nil {
		return nil
	}
	return s.crit.Result()
}

// mirrorEdit replays one successfully applied session edit into every
// scenario clone of the active sweep. The scenario transform is linear per
// canonical-form component, so mirroring an edit and transforming the
// edited graph commute; the clone edge delays are recomputed from the main
// graph's post-edit forms so the invariant "clone == TransformGraph(main)"
// holds after every edit. Any mirror failure (or a module swap, which
// replaces the graph wholesale) marks the sweep stale for a full rebuild.
func (s *Session) mirrorEdit(e *Edit) {
	sw := s.sweep
	if sw == nil || sw.stale {
		return
	}
	if e.Op == EditSwapModule {
		sw.stale = true
		return
	}
	for i := range sw.graphs {
		sc := &sw.scens[i]
		g := sw.graphs[i]
		var err error
		switch e.Op {
		case EditScaleDelay:
			err = g.ScaleEdgeDelay(e.Edge, e.Scale)
		case EditSetDelay, EditSetNominal:
			err = g.SetEdgeDelay(e.Edge, sc.TransformEdge(g.Space, e.Edge, &s.graph.Edges[e.Edge]))
		case EditAddEdge:
			me := &s.graph.Edges[len(s.graph.Edges)-1]
			_, err = g.AddEdgeLive(me.From, me.To, sc.TransformEdge(g.Space, len(g.Edges), me), nil, 0)
		case EditRemoveEdge:
			err = g.RemoveEdge(e.Edge)
		case EditRetargetIO:
			err = g.RetargetIO(e.Inputs, e.Outputs, e.InNames, e.OutNames)
		case EditSetNetDelay:
			var ei int
			if ei, err = s.hs.NetEdge(e.Net); err == nil {
				err = g.SetEdgeDelay(ei, sc.TransformEdge(g.Space, ei, &s.graph.Edges[ei]))
			}
		default:
			err = fmt.Errorf("unmirrorable op %v", e.Op)
		}
		if err != nil {
			sw.stale = true
			return
		}
	}
}

// sweepObserver composes the sweep's own OnScenarioDone hook with a
// per-call observer into one completion callback (nil when both are nil).
// The installed hook fires first so its accounting is never starved by a
// slow streaming observer.
func sweepObserver(opt SweepOptions, obs func(int, *ScenarioResult)) func(int, *ScenarioResult) {
	hook := opt.OnScenarioDone
	if hook == nil {
		return obs
	}
	if obs == nil {
		return hook
	}
	return func(i int, r *ScenarioResult) { hook(i, r); obs(i, r) }
}

// refreshSweep re-evaluates the active sweep: a dirty-cone incremental
// update per scenario, or a full rebuild when the session graph was
// replaced (restitch) or the sweep state went stale. Every scenario gets
// one definite outcome even when the refresh is interrupted mid-sweep — a
// failed incremental update lands in that scenario's Err and the remaining
// scenarios are still attempted (once the context is dead they fail fast),
// so the observer sees exactly where the sweep was cut off. Any update
// failure marks the sweep stale and surfaces as the returned error; the
// retained report is then the last consistent one.
func (s *Session) refreshSweep(ctx context.Context, rebuild bool, obs func(int, *ScenarioResult)) error {
	sw := s.sweep
	if rebuild || sw.stale {
		st, err := s.buildSweepState(ctx, sw.scens, sw.opt, obs)
		if err != nil {
			sw.stale = true
			return err
		}
		s.sweep = st
		return nil
	}
	fire := sweepObserver(sw.opt, obs)
	q := sw.opt.Quantile
	if q <= 0 {
		q = 0.99865
	}
	results := make([]ScenarioResult, len(sw.scens))
	var firstErr error
	for i := range sw.scens {
		r := &results[i]
		r.Name, r.Shared = sw.scens[i].Name, true
		t0 := time.Now()
		if _, err := sw.incs[i].Update(ctx); err != nil {
			r.Err = err
			if firstErr == nil {
				firstErr = err
			}
		} else if delay, err := sw.incs[i].MaxDelay(); err != nil {
			r.Err = err
		} else {
			r.Delay = delay
			r.Mean, r.Std, r.Quantile = delay.Mean(), delay.Std(), delay.Quantile(q)
			if err := fillSeqSlack(ctx, r, sw.graphs[i], &sw.scens[i], q); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		r.Elapsed = time.Since(t0)
		if fire != nil {
			fire(i, r)
		}
	}
	if firstErr != nil {
		sw.stale = true
		return firstErr
	}
	sw.report = scenario.NewReport(results, sw.opt)
	s.stampSweepTop(sw.report)
	return nil
}

// fillSeqSlack attaches worst setup/hold slack statistics to a session
// scenario result when its graph is sequential. The scenario's transform is
// already materialized in the per-scenario graph clone, so the analysis
// reads the graph's own delays under the scenario's clock. A failed
// analysis lands in r.Err; when ctx cut it short, the context's error is
// also returned, so the caller fails the sweep instead of keeping a result
// that only says the request went away.
func fillSeqSlack(ctx context.Context, r *ScenarioResult, g *Graph, sc *Scenario, q float64) error {
	if g == nil || !g.Sequential() {
		return nil
	}
	_, seq, err := g.AnalyzeCtx(ctx, nil, sc.ClockSpec(), nil)
	if err != nil {
		r.Err = err
		return ctx.Err()
	}
	r.SetupSlack, r.HoldSlack = scenario.SeqSlackStats(seq, q)
	return nil
}

// stampSweepTop records the session graph's size on the sweep report, so
// session sweep responses carry the same scalar graph stats as one-shot
// sweeps (the wire layer reads the scalars, never the graph).
func (s *Session) stampSweepTop(rep *SweepReport) {
	if rep == nil || s.graph == nil {
		return
	}
	rep.Top = s.graph
	rep.TopVerts, rep.TopEdges = s.graph.NumVerts, len(s.graph.Edges)
}

// buildSweepState pays the full per-scenario cost — one transformed clone
// of the session graph and one full propagation per scenario — fanned out
// over opt.Workers like the one-shot sweep engine (each scenario writes
// only its own slots; the session mutex is already held). The observer is
// fired once per scenario with its final result, including error results
// when the build is interrupted: scenarios the pool never started are
// attributed the context error before the build error is returned, so a
// streaming caller still receives one event per scenario.
func (s *Session) buildSweepState(ctx context.Context, scens []Scenario, opt SweepOptions, obs func(int, *ScenarioResult)) (*sessionSweep, error) {
	sw := &sessionSweep{
		scens:  scens,
		opt:    opt,
		graphs: make([]*Graph, len(scens)),
		incs:   make([]*timing.Incremental, len(scens)),
	}
	fire := sweepObserver(opt, obs)
	q := opt.Quantile
	if q <= 0 {
		q = 0.99865
	}
	results := make([]ScenarioResult, len(scens))
	err := timing.ParallelForCtx(ctx, len(scens), opt.Workers, func(ctx context.Context, i int) error {
		t0 := time.Now()
		r := &results[i]
		r.Name, r.Shared = scens[i].Name, true
		g := scens[i].TransformGraph(s.graph)
		inc, err := g.NewIncrementalCtx(ctx)
		if err != nil {
			r.Err = err
			r.Elapsed = time.Since(t0)
			if fire != nil {
				fire(i, r)
			}
			return err
		}
		sw.graphs[i], sw.incs[i] = g, inc
		var cut error
		if delay, err := inc.MaxDelay(); err != nil {
			r.Err = err
		} else {
			r.Delay = delay
			r.Mean, r.Std, r.Quantile = delay.Mean(), delay.Std(), delay.Quantile(q)
			cut = fillSeqSlack(ctx, r, g, &scens[i], q)
		}
		r.Elapsed = time.Since(t0)
		if fire != nil {
			fire(i, r)
		}
		return cut
	})
	if err != nil {
		if fire != nil {
			for i := range results {
				r := &results[i]
				if r.Delay == nil && r.Err == nil {
					r.Name, r.Shared = scens[i].Name, true
					if cerr := ctx.Err(); cerr != nil {
						r.Err = cerr
					} else {
						r.Err = err
					}
					fire(i, r)
				}
			}
		}
		return nil, err
	}
	sw.report = scenario.NewReport(results, opt)
	s.stampSweepTop(sw.report)
	return sw, nil
}

// SetSweep installs (or replaces) the session's active MCMM sweep: every
// scenario gets a transformed clone of the session graph with persistent
// incremental state, paid for with one full propagation per scenario here;
// every subsequent Apply re-evaluates all scenarios incrementally
// (dirty-cone re-propagation per scenario) and reports the refreshed sweep
// in EditReport.Sweep. Module-swap scenarios are rejected — sessions
// express swaps as edits, which trigger a full sweep rebuild anyway — and
// so are EdgeScales keys outside the session graph's edges.
func (s *Session) SetSweep(ctx context.Context, scens []Scenario, opt SweepOptions) (*SweepReport, error) {
	norm, err := scenario.Normalize(scens, false)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range norm {
		if err := norm[i].CheckEdges(s.graph); err != nil {
			return nil, err
		}
	}
	st, err := s.buildSweepState(ctx, norm, opt, nil)
	if err != nil {
		return nil, err
	}
	s.sweep = st
	s.gen++
	return st.report, nil
}

// Sweep returns the active sweep's report as of the last edit batch (or
// SetSweep), or nil when no sweep is installed.
func (s *Session) Sweep() *SweepReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sweep == nil {
		return nil
	}
	return s.sweep.report
}

// ClearSweep drops the active sweep and its per-scenario state.
func (s *Session) ClearSweep() {
	s.mu.Lock()
	s.sweep = nil
	s.gen++
	s.mu.Unlock()
}
