package timing

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/canon"
)

// This file holds the package's one propagation kernel, the walker: a
// level-ordered gather parameterized by direction (forward or backward) and
// fold (Clark max or min). Every full pass — Arrivals, ArrivalsMin,
// Required and their scenario variants — and every incremental cone
// sweep runs through it. Around it sit the pooled Pass arena the full
// passes write into and the pass-level queries built on it.

// Pass is a reusable propagation arena: one flat canon.Bank with a slot per
// vertex plus one scratch slot, and a per-vertex reached mask. A forward
// (Arrivals) or backward (Required) pass writes its result forms into the
// bank in place, so a full pass over the graph performs no per-vertex
// allocations — the paper's all-pairs extraction scheme (eq. 12) runs one
// such pass per input, and pooled passes make that loop allocation-free.
//
// Acquire with Graph.AcquirePass, give it back with Release. A Pass is
// bound to the graph that created it and is not safe for concurrent use;
// concurrent workers each acquire their own. Backing slabs are recycled
// through a global pool, so both repeated passes over one graph (the
// all-pairs workers) and passes over a stream of fresh graphs (the
// hierarchical engine, the batch scheduler) stay at O(1) allocations —
// and reused slabs are never re-zeroed.
type Pass struct {
	g     *Graph
	bank  *canon.Bank
	reach []bool
	// ctx, when set via WithContext, is polled every ctxCheckStride
	// vertices during a pass so a long pass observes cancellation between
	// vertices instead of running to completion.
	ctx context.Context
}

// ctxCheckStride is how many vertices a pass processes between context
// polls: frequent enough for sub-millisecond cancellation latency on any
// realistic graph, rare enough that the atomic load never shows up in
// profiles.
const ctxCheckStride = 256

// WithContext attaches a cancellation context to the pass and returns it.
// A nil ctx (the AcquirePass default) disables polling entirely.
func (p *Pass) WithContext(ctx context.Context) *Pass {
	p.ctx = ctx
	return p
}

// stepCtx polls a (possibly nil) context on stride boundaries.
func stepCtx(ctx context.Context, step int) error {
	if ctx != nil && step%ctxCheckStride == 0 {
		return ctx.Err()
	}
	return nil
}

// The pass pools are global so arena slabs outlive individual graphs: a
// flow that builds a fresh top-level graph per analysis (the hierarchical
// engine, the batch scheduler) still recycles the same storage instead of
// allocating and zeroing megabyte slabs each time. Slab contents are never
// zeroed on reuse — every kernel fully overwrites its destination slot and
// the reach mask is reset at the start of each pass.
//
// Each pool is split into power-of-two size classes: a Get from class c
// always yields capacity >= 1<<c, so a workload mixing graph sizes recycles
// storage instead of dropping undersized buffers on the floor (small-graph
// slabs no longer collide with big-graph requests and vice versa).
const passPoolClasses = 28

var (
	passSlabPools [passPoolClasses]sync.Pool // *[]float64 — bank backing storage
	passMaskPools [passPoolClasses]sync.Pool // *[]bool    — reach masks
)

// poolClass maps a required capacity to the smallest class whose buffers
// can hold it: class c holds buffers with capacity >= 1<<c.
func poolClass(need int) int {
	if need <= 1 {
		return 0
	}
	return bits.Len(uint(need - 1))
}

// takeSlab returns a float64 buffer with capacity >= need from the pool,
// allocating a class-sized one on a miss. need above the largest class is
// served unpooled.
func takeSlab(need int) []float64 {
	c := poolClass(need)
	if c >= passPoolClasses {
		return make([]float64, need)
	}
	if s, ok := passSlabPools[c].Get().(*[]float64); ok {
		return *s
	}
	return make([]float64, 1<<c)
}

// putSlab recycles a buffer into the class it can serve: the largest c with
// 1<<c <= cap, so every future Get from that class fits. Oversized buffers
// (beyond the class table) are dropped.
func putSlab(s []float64) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1
	if c >= passPoolClasses {
		return
	}
	passSlabPools[c].Put(&s)
}

// takeMask and putMask mirror takeSlab/putSlab for reach masks.
func takeMask(need int) []bool {
	c := poolClass(need)
	if c >= passPoolClasses {
		return make([]bool, need)
	}
	if m, ok := passMaskPools[c].Get().(*[]bool); ok {
		return (*m)[:need]
	}
	return make([]bool, 1<<c)[:need]
}

func putMask(m []bool) {
	if cap(m) == 0 {
		return
	}
	c := bits.Len(uint(cap(m))) - 1
	if c >= passPoolClasses {
		return
	}
	passMaskPools[c].Put(&m)
}

// AcquirePass returns a propagation arena for the graph, recycling pooled
// storage when available.
func (g *Graph) AcquirePass() *Pass {
	return &Pass{
		g:     g,
		bank:  canon.NewBankOver(g.Space, g.NumVerts+1, takeSlab((g.NumVerts+1)*g.Space.Stride())),
		reach: takeMask(g.NumVerts),
	}
}

// Release returns the pass's storage to the pool. The pass and every View
// obtained from it must not be used afterwards.
func (p *Pass) Release() {
	putSlab(p.bank.Data())
	putMask(p.reach)
	p.bank, p.reach, p.ctx = nil, nil, nil
}

// Reached reports whether the last pass reached vertex v.
func (p *Pass) Reached(v int) bool { return p.reach[v] }

// At returns the flat view of vertex v's form from the last pass. The
// contents are meaningful only when Reached(v); the view is invalidated by
// the next pass or Release.
func (p *Pass) At(v int) canon.View { return p.bank.View(v) }

// Scratch returns the pass's spare slot — free for caller-side folds (e.g.
// a running max over outputs) between passes.
func (p *Pass) Scratch() canon.View { return p.bank.View(p.g.NumVerts) }

// Form materializes vertex v's form from the last pass, or nil when the
// pass did not reach v.
func (p *Pass) Form(v int) *canon.Form {
	if !p.reach[v] {
		return nil
	}
	return p.bank.View(v).Form(p.g.Space)
}

// Forms materializes the whole pass as a per-vertex pointer-form slice with
// nil entries for unreached vertices — the pointer-based API shape.
func (p *Pass) Forms() []*canon.Form {
	out := make([]*canon.Form, p.g.NumVerts)
	for v := range out {
		if p.reach[v] {
			out[v] = p.bank.View(v).Form(p.g.Space)
		}
	}
	return out
}

// Arrivals runs a forward propagation from the given source vertices (all
// arriving at time zero) into the pass arena. With a single source this is
// the paper's exclusive propagation ("arrival exclusively from vi",
// Section IV-B).
func (p *Pass) Arrivals(sources ...int) error {
	return p.walker(p.g.EdgeDelays(), forward, canon.MaxViews).pass(p.ctx, sources)
}

// ArrivalsOver runs the forward propagation reading edge delays from the
// given bank instead of the graph's own, such as a bank a caller filled.
// (Scenario sweeps read the graph's own bank and rescale it as they go; see
// Scale.) The bank must hold one slot per edge index (tombstoned slots are
// never read) in the graph's space; it is read-only during the pass.
func (p *Pass) ArrivalsOver(delays *canon.Bank, sources ...int) error {
	return p.walker(delays, forward, canon.MaxViews).pass(p.ctx, sources)
}

// Scale is a per-edge rescale of a graph's delays that the walker applies
// as it reads them: edge ei's delay form is multiplied as a whole by
// Edge[ei], and its Glob, Loc and Rand blocks further by Glob, Loc and Rand
// (canon.AddScaledViews). This is how a scenario sweep runs many operating
// scenarios over one shared delay bank without writing a scaled copy of it.
// The zero Scale (nil Edge) leaves the delays unscaled.
type Scale struct {
	Edge            []float64 // one factor per edge index
	Glob, Loc, Rand float64
}

// arrivalsScaled is a forward pass with the given fold over the graph's own
// delays, rescaled per s as they are read; a nil s reads them unscaled.
func (p *Pass) arrivalsScaled(s *Scale, fold func(dst, a, b canon.View), sources []int) error {
	w := p.walker(p.g.EdgeDelays(), forward, fold)
	if s != nil {
		w.scale = *s
	}
	return w.pass(p.ctx, sources)
}

// Required runs a backward propagation into the pass arena: after it, At(v)
// holds the maximum statistical delay from v to any of the given output
// vertices — the negated required time of the paper's eq. 15 when the
// required time at the outputs is zero.
func (p *Pass) Required(outputs ...int) error {
	return p.walker(p.g.EdgeDelays(), backward, canon.MaxViews).pass(p.ctx, outputs)
}

// walker returns the propagation walker over the pass arena.
func (p *Pass) walker(delays *canon.Bank, d direction, fold func(dst, a, b canon.View)) walker {
	return walker{g: p.g, bank: p.bank, reach: p.reach, delays: delays, dir: d, fold: fold}
}

// direction selects which way a walker propagates.
type direction bool

const (
	// forward gathers each vertex's fan-in edges (far end From) in
	// ascending level order: arrival times.
	forward direction = false
	// backward gathers each vertex's fan-out edges (far end To) in
	// descending level order: delays to the outputs (required times).
	backward direction = true
)

// walker is the one propagation kernel of the package (paper Section IV,
// eqs. 6-9): at each vertex, add every reached far-end form to its edge
// delay and fold the sums with fold — canon.MaxViews for latest arrivals
// and required times, canon.MinViews for earliest arrivals. Results are
// written into bank, one slot per vertex, with reach marking the vertices
// that hold a value; delays holds one slot per edge index, rescaled per
// scale as it is read unless scale is the zero Scale.
//
// The same per-vertex gather serves a full level-ordered pass (pass) and
// the incremental engine's dirty-cone sweeps (Incremental.sweep), so both
// perform the same floating-point operations in the same order at every
// vertex. The contribution order is fixed per vertex — forward fan-ins
// sorted by the topological position of their source (Levels.FaninSorted),
// backward fan-outs in adjacency order — so the result never depends on the
// order in which vertices are visited.
type walker struct {
	g      *Graph
	bank   *canon.Bank
	reach  []bool
	delays *canon.Bank
	scale  Scale
	dir    direction
	fold   func(dst, a, b canon.View)
}

// pass runs a full propagation from the given seed vertices (all at time
// zero) over the graph's level structure: waves ascending for forward,
// descending for backward. Slot g.NumVerts of the bank is scratch.
func (w walker) pass(ctx context.Context, seeds []int) error {
	g := w.g
	if w.delays == nil {
		return errors.New("timing: propagation needs a delay bank")
	}
	if w.delays.Cap() < len(g.Edges) {
		return fmt.Errorf("timing: delay bank has %d slots for %d edges", w.delays.Cap(), len(g.Edges))
	}
	if w.scale.Edge != nil && len(w.scale.Edge) < len(g.Edges) {
		return fmt.Errorf("timing: scale has %d edge factors for %d edges", len(w.scale.Edge), len(g.Edges))
	}
	lv, err := g.Levels()
	if err != nil {
		return err
	}
	kind := "source"
	if w.dir == backward {
		kind = "output"
	}
	if err := checkVerts(g, seeds, kind); err != nil {
		return err
	}
	for i := range w.reach {
		w.reach[i] = false
	}
	for _, s := range seeds {
		w.reach[s] = true
	}
	tmp := w.bank.View(g.NumVerts)
	scaled := w.scale.Edge != nil
	n := len(lv.Wave)
	for i := 0; i < n; i++ {
		if err := stepCtx(ctx, i); err != nil {
			return err
		}
		var v int
		var fanin []int32
		if w.dir == forward {
			v = int(lv.Wave[i])
			fanin = lv.FaninSorted(v)
		} else {
			v = int(lv.Wave[n-1-i])
			fanin = g.Out[v]
		}
		if scaled {
			w.reach[v] = w.gatherScaled(w.bank.View(v), tmp, fanin, w.reach[v])
		} else {
			w.reach[v] = w.gather(w.bank.View(v), tmp, fanin, w.reach[v])
		}
	}
	return nil
}

// gather folds one vertex's contributions — for every edge of fanin whose
// far end is reached, the far end's form plus the edge delay — into dst and
// reports whether dst holds a value. A seeded vertex starts from the
// zero-time constant and folds every contribution on top of it; otherwise
// the first contribution is written into dst and the rest are summed in tmp
// and folded.
func (w *walker) gather(dst, tmp canon.View, fanin []int32, seeded bool) bool {
	if seeded {
		dst.SetConst(0)
	}
	reached := seeded
	for _, ei := range fanin {
		e := &w.g.Edges[ei]
		u := e.From
		if w.dir == backward {
			u = e.To
		}
		if !w.reach[u] {
			continue
		}
		if reached {
			canon.AddViews(tmp, w.bank.View(u), w.delays.View(int(ei)))
			w.fold(dst, dst, tmp)
		} else {
			canon.AddViews(dst, w.bank.View(u), w.delays.View(int(ei)))
			reached = true
		}
	}
	return reached
}

// gatherScaled is gather with every edge delay rescaled per w.scale as it
// is read: the same contributions in the same order, each sum formed by
// canon.AddScaledViews in place of canon.AddViews. It is a function of its
// own, chosen per vertex by pass, because any branch inside gather — per
// edge or even once per call — measurably slows the unscaled walks.
func (w *walker) gatherScaled(dst, tmp canon.View, fanin []int32, seeded bool) bool {
	s, nGlob := &w.scale, w.g.Space.Globals
	if seeded {
		dst.SetConst(0)
	}
	reached := seeded
	for _, ei := range fanin {
		e := &w.g.Edges[ei]
		u := e.From
		if w.dir == backward {
			u = e.To
		}
		if !w.reach[u] {
			continue
		}
		if reached {
			canon.AddScaledViews(tmp, w.bank.View(u), w.delays.View(int(ei)), nGlob, s.Edge[ei], s.Glob, s.Loc, s.Rand)
			w.fold(dst, dst, tmp)
		} else {
			canon.AddScaledViews(dst, w.bank.View(u), w.delays.View(int(ei)), nGlob, s.Edge[ei], s.Glob, s.Loc, s.Rand)
			reached = true
		}
	}
	return reached
}

// checkVerts rejects vertex ids outside the graph — SetIO accepts port
// lists unvalidated, so every consumer of them checks here first. The kind
// string names the vertex role in the error ("source", "input", ...).
func checkVerts(g *Graph, vs []int, kind string) error {
	for _, v := range vs {
		if v < 0 || v >= g.NumVerts {
			return fmt.Errorf("timing: %s vertex %d out of range", kind, v)
		}
	}
	return nil
}

// ArrivalAll propagates arrival times from all inputs simultaneously (every
// input at time zero) and returns the arrival form per vertex. Vertices not
// reachable from any input have a nil entry.
func (g *Graph) ArrivalAll() ([]*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(g.Inputs...); err != nil {
		return nil, err
	}
	return p.Forms(), nil
}

// MaxDelay returns the statistical maximum delay over all outputs with all
// inputs arriving at time zero — the circuit delay distribution. The fold
// over outputs runs in the pass arena, so the whole computation allocates
// only the returned form.
func (g *Graph) MaxDelay() (*canon.Form, error) {
	return g.MaxDelayCtx(nil)
}

// MaxDelayCtx is MaxDelay with cooperative cancellation: the forward pass
// polls ctx between vertices and returns its error once it fires. A nil
// ctx disables polling (MaxDelay calls through with nil). On sequential
// graphs the pass launches from the clock roots as well as the inputs, so
// register-launched logic is covered.
func (g *Graph) MaxDelayCtx(ctx context.Context) (*canon.Form, error) {
	p := g.AcquirePass().WithContext(ctx)
	defer p.Release()
	if err := p.Arrivals(g.LaunchSources()...); err != nil {
		return nil, err
	}
	return p.outputMax(nil)
}

// outputMax folds the last pass's reached output arrivals with Clark max,
// in output order, in the scratch slot, and materializes the result. When
// outputs is non-nil, each output's arrival form is materialized into its
// slot as well (nil when unreached).
func (p *Pass) outputMax(outputs []*canon.Form) (*canon.Form, error) {
	acc := p.Scratch()
	first := true
	for k, o := range p.g.Outputs {
		if outputs != nil {
			outputs[k] = p.Form(o)
		}
		if !p.Reached(o) {
			continue
		}
		if first {
			canon.CopyView(acc, p.At(o))
			first = false
		} else {
			canon.MaxViews(acc, acc, p.At(o))
		}
	}
	if first {
		return nil, errors.New("timing: no output reachable from any input")
	}
	return acc.Form(p.g.Space), nil
}

// AllPairs holds the maximum input-output delay forms M_ij (paper eq. 12).
// M[i][j] is nil when output j is not reachable from input i.
type AllPairs struct {
	Inputs  []int
	Outputs []int
	M       [][]*canon.Form
}

// AllPairsDelays computes the full delay matrix with one exclusive forward
// propagation per input (Sapatnekar's all-pairs scheme), fanning the passes
// out over `workers` goroutines (<=0 means GOMAXPROCS). Each pass runs in a
// pooled arena, so the per-input cost allocates only the output row.
func (g *Graph) AllPairsDelays(workers int) (*AllPairs, error) {
	if _, err := g.Order(); err != nil {
		return nil, err
	}
	g.EdgeDelays() // build the flat delay bank before fanning out
	ap := &AllPairs{
		Inputs:  exactInts(g.Inputs),
		Outputs: exactInts(g.Outputs),
		M:       make([][]*canon.Form, len(g.Inputs)),
	}
	err := ParallelFor(len(g.Inputs), workers, func(i int) error {
		p := g.AcquirePass()
		defer p.Release()
		if err := p.Arrivals(g.Inputs[i]); err != nil {
			return err
		}
		row := make([]*canon.Form, len(g.Outputs))
		for j, o := range g.Outputs {
			row[j] = p.Form(o)
		}
		ap.M[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ap, nil
}

// ReachSets holds the graph's IO reachability bitsets in two strided
// []uint64 slabs — one FromInput row and one ToOutput row per vertex, each
// a fixed number of words, so building them costs two slab allocations
// instead of two slices per vertex.
type ReachSets struct {
	WIn, WOut int // words per vertex in the respective slab
	fromInput []uint64
	toOutput  []uint64
}

// FromInput returns the bitset of inputs (by position in Graph.Inputs)
// reaching vertex v. The slice aliases the shared slab — treat as read-only.
func (r *ReachSets) FromInput(v int) []uint64 {
	return r.fromInput[v*r.WIn : (v+1)*r.WIn]
}

// ToOutput returns the bitset of outputs (by position in Graph.Outputs)
// reachable from vertex v. Read-only, like FromInput.
func (r *ReachSets) ToOutput(v int) []uint64 {
	return r.toOutput[v*r.WOut : (v+1)*r.WOut]
}

// InputReaches reports whether input position i reaches vertex v.
func (r *ReachSets) InputReaches(i, v int) bool {
	return r.fromInput[v*r.WIn+i/64]&(1<<uint(i%64)) != 0
}

// ReachesOutput reports whether vertex v reaches output position j.
func (r *ReachSets) ReachesOutput(v, j int) bool {
	return r.toOutput[v*r.WOut+j/64]&(1<<uint(j%64)) != 0
}

// Reachability returns per-vertex bitsets marking which inputs reach each
// vertex (forward) and which outputs each vertex reaches (backward) — used
// to prune criticality work. It runs once per extraction; the flattened
// slab layout keeps it at two bulk allocations.
func (g *Graph) Reachability() (*ReachSets, error) {
	order, err := g.Order()
	if err != nil {
		return nil, err
	}
	r := &ReachSets{
		WIn:  (len(g.Inputs) + 63) / 64,
		WOut: (len(g.Outputs) + 63) / 64,
	}
	// Reject bad ports with an error rather than an index panic (the
	// criticality engine depends on this surfacing promptly — see the
	// pool-hang regression test in internal/core).
	if err := checkVerts(g, g.Inputs, "input"); err != nil {
		return nil, err
	}
	if err := checkVerts(g, g.Outputs, "output"); err != nil {
		return nil, err
	}
	r.fromInput = make([]uint64, g.NumVerts*r.WIn)
	r.toOutput = make([]uint64, g.NumVerts*r.WOut)
	for i, in := range g.Inputs {
		r.fromInput[in*r.WIn+i/64] |= 1 << uint(i%64)
	}
	for _, v := range order {
		fv := r.FromInput(v)
		for _, ei := range g.Out[v] {
			tv := r.FromInput(g.Edges[ei].To)
			for w := range fv {
				tv[w] |= fv[w]
			}
		}
	}
	for j, out := range g.Outputs {
		r.toOutput[out*r.WOut+j/64] |= 1 << uint(j%64)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		tv := r.ToOutput(v)
		for _, ei := range g.In[v] {
			sv := r.ToOutput(g.Edges[ei].From)
			for w := range tv {
				sv[w] |= tv[w]
			}
		}
	}
	return r, nil
}

// exactInts copies a slice with exact capacity (append-to-nil rounds up).
func exactInts(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}
