package timing

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/canon"
)

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
	// vertices during Arrivals/Required so a long pass observes
	// cancellation between vertices instead of running to completion.
	ctx context.Context
	// workers > 1 selects the intra-level parallel wavefront kernels; see
	// WithWorkers. Zero (the AcquirePass default) runs serially.
	workers int
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

// WithWorkers selects intra-level parallel propagation: each level of the
// graph's wavefront structure (Graph.Levels) is fanned out over a bounded
// ParallelForCtx pool, with per-worker scratch and a fan-in gather order
// that reproduces the serial pass bit for bit (see Levels.FaninSorted).
// n <= 0 selects GOMAXPROCS; n == 1 restores the serial kernel. Wide,
// shallow graphs benefit; on narrow levels the pass drops back to the
// serial kernel per level, so results never depend on the worker count.
func (p *Pass) WithWorkers(n int) *Pass {
	p.workers = Workers(n, 1<<30)
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

// AcquireBank returns a bank of the given number of slots backed by a
// pooled slab — the scenario sweep's per-scenario delay banks share the
// propagation pool instead of allocating and zeroing a fresh bank each.
// The slots hold whatever the slab held before: the caller must overwrite
// every slot it (or a kernel reading the bank) will read. Give the bank
// back with ReleaseBank.
func AcquireBank(s canon.Space, slots int) *canon.Bank {
	return canon.NewBankOver(s, slots, takeSlab(slots*s.Stride()))
}

// ReleaseBank returns an AcquireBank bank's slab to the pool. The bank and
// every View obtained from it must not be used afterwards.
func ReleaseBank(b *canon.Bank) { putSlab(b.Data()) }

// AcquirePass returns a propagation arena for the graph, recycling pooled
// storage when available.
func (g *Graph) AcquirePass() *Pass {
	return &Pass{
		g:     g,
		bank:  AcquireBank(g.Space, g.NumVerts+1),
		reach: takeMask(g.NumVerts),
	}
}

// Release returns the pass's storage to the pool. The pass and every View
// obtained from it must not be used afterwards.
func (p *Pass) Release() {
	ReleaseBank(p.bank)
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

// delaySource decides where a pass reads edge delays from. A graph's first
// pass reads the pointer forms directly — building the flat bank costs one
// extra sweep over every edge and only pays off when passes repeat (the
// all-pairs scheme, criticality, repeated queries). From the second pass on
// the cached flat bank is used. Both paths perform identical floating-point
// operations, so the choice never changes results.
func (p *Pass) delaySource() *canon.Bank {
	g := p.g
	if g.passes.Add(1) > 1 || g.hasDelayBank() {
		return g.EdgeDelays()
	}
	return nil
}

func (g *Graph) hasDelayBank() bool {
	g.delayMu.Lock()
	defer g.delayMu.Unlock()
	return g.delayBank != nil
}

// Arrivals runs a forward propagation from the given source vertices (all
// arriving at time zero) into the pass arena. With a single source this is
// the paper's exclusive propagation ("arrival exclusively from vi",
// Section IV-B).
func (p *Pass) Arrivals(sources ...int) error {
	if p.workers > 1 {
		delays := p.delaySource()
		if delays == nil {
			delays = p.g.EdgeDelays()
		}
		return forwardPassParallel(p.g, p.bank, p.reach, delays, p.ctx, sources, p.workers)
	}
	return forwardPass(p.g, p.bank, p.reach, p.delaySource(), p.ctx, sources)
}

// seedSources resets the reach mask and seeds the given vertices at time
// zero — the shared preamble of every propagation kernel. The kind string
// names the vertex role in range errors ("source" or "output").
func seedSources(g *Graph, bank *canon.Bank, reach []bool, seeds []int, kind string) error {
	for i := range reach {
		reach[i] = false
	}
	for _, s := range seeds {
		if s < 0 || s >= g.NumVerts {
			return fmt.Errorf("timing: %s vertex %d out of range", kind, s)
		}
		bank.View(s).SetConst(0)
		reach[s] = true
	}
	return nil
}

// forwardPass is the serial forward propagation kernel shared by pooled
// passes and the persistent incremental state: arrivals are written into
// bank (slot g.NumVerts is scratch) with the per-vertex reach mask. A nil
// delays bank reads the pointer forms directly (a graph's first pass,
// before the flat bank is built); both paths perform identical
// floating-point operations.
//
// Vertices are visited in level-batched wavefronts when the cached
// topological order is level-monotone — the same visit sequence as the
// plain order loop, with the per-level bounds hoisted out of the hot loop —
// and in plain topological order otherwise, so the contribution order at
// every vertex is the same either way.
func forwardPass(g *Graph, bank *canon.Bank, reach []bool, delays *canon.Bank, ctx context.Context, sources []int) error {
	lv, err := g.Levels()
	if err != nil {
		return err
	}
	if err := seedSources(g, bank, reach, sources, "source"); err != nil {
		return err
	}
	scratch := bank.View(g.NumVerts)
	edges, out := g.Edges, g.Out
	push := func(v int) {
		if !reach[v] {
			return
		}
		av := bank.View(v)
		for _, ei := range out[v] {
			to := edges[ei].To
			if delays != nil {
				canon.AddViews(scratch, av, delays.View(int(ei)))
			} else {
				canon.AddFormView(scratch, av, edges[ei].Delay)
			}
			tv := bank.View(to)
			if !reach[to] {
				canon.CopyView(tv, scratch)
				reach[to] = true
			} else {
				canon.MaxViews(tv, tv, scratch)
			}
		}
	}
	if lv.Monotone {
		step := 0
		for k := 0; k <= lv.MaxLevel; k++ {
			wave := lv.Wave[lv.Starts[k]:lv.Starts[k+1]]
			for _, vi := range wave {
				if err := stepCtx(ctx, step); err != nil {
					return err
				}
				step++
				push(int(vi))
			}
		}
		return nil
	}
	order, err := g.Order()
	if err != nil {
		return err
	}
	for step, v := range order {
		if err := stepCtx(ctx, step); err != nil {
			return err
		}
		push(v)
	}
	return nil
}

// parallelLevelMin is the minimum wavefront width (per worker) worth
// fanning out: below it the per-level pool coordination costs more than
// the gather work and the level runs on the serial kernel instead. The
// choice never affects results — gather order is fixed per vertex.
const parallelLevelMin = 4

// forwardPassParallel is the intra-level parallel forward kernel: levels
// run in sequence, vertices within a level gather their fan-in
// concurrently. Gathering folds each vertex's fan-in sorted by source
// topological position — exactly the order in which the serial push kernel
// delivers contributions (In[v] cannot see them in any other relative
// order: addEdge appends to every adjacency list in one global sequence) —
// so the result is bit-identical to forwardPass regardless of worker count
// or intra-level scheduling.
func forwardPassParallel(g *Graph, bank *canon.Bank, reach []bool, delays *canon.Bank, ctx context.Context, sources []int, workers int) error {
	if ctx == nil {
		ctx = context.Background() // ParallelForCtx needs a non-nil parent
	}
	lv, err := g.Levels()
	if err != nil {
		return err
	}
	if err := seedSources(g, bank, reach, sources, "source"); err != nil {
		return err
	}
	stride := g.Space.Stride()
	slab := takeSlab(workers * stride)
	defer putSlab(slab)
	tmps := canon.NewBankOver(g.Space, workers, slab)

	gather := func(v int, tmp canon.View) {
		av := bank.View(v)
		// At gather time reach[v] is true only for pre-seeded sources, whose
		// slot already holds the zero-time constant; contributions fold on
		// top of it, exactly as the push kernel would.
		reached := reach[v]
		for _, ei := range lv.FaninSorted(v) {
			e := &g.Edges[ei]
			if !reach[e.From] {
				continue
			}
			canon.AddViews(tmp, bank.View(e.From), delays.View(int(ei)))
			if !reached {
				canon.CopyView(av, tmp)
				reached = true
			} else {
				canon.MaxViews(av, av, tmp)
			}
		}
		reach[v] = reached
	}

	for k := 1; k <= lv.MaxLevel; k++ {
		wave := lv.Wave[lv.Starts[k]:lv.Starts[k+1]]
		n := len(wave)
		chunks := workers
		if n < chunks*parallelLevelMin {
			if err := stepCtx(ctx, 0); err != nil {
				return err
			}
			tmp := tmps.View(0)
			for _, vi := range wave {
				gather(int(vi), tmp)
			}
			continue
		}
		err := ParallelForCtx(ctx, chunks, chunks, func(_ context.Context, c int) error {
			tmp := tmps.View(c)
			for _, vi := range wave[n*c/chunks : n*(c+1)/chunks] {
				gather(int(vi), tmp)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ArrivalsOver runs the forward propagation reading edge delays from the
// given bank instead of the graph's own — the MCMM sweep hook: one shared
// graph, many scenario-scaled delay banks, each propagated through the same
// kernel. The bank must hold one slot per edge index (tombstoned slots are
// never read) in the graph's space; it is read-only during the pass.
func (p *Pass) ArrivalsOver(delays *canon.Bank, sources ...int) error {
	if delays == nil {
		return errors.New("timing: ArrivalsOver needs a delay bank")
	}
	if delays.Cap() < len(p.g.Edges) {
		return fmt.Errorf("timing: delay bank has %d slots for %d edges", delays.Cap(), len(p.g.Edges))
	}
	if p.workers > 1 {
		return forwardPassParallel(p.g, p.bank, p.reach, delays, p.ctx, sources, p.workers)
	}
	return forwardPass(p.g, p.bank, p.reach, delays, p.ctx, sources)
}

// RequiredOver mirrors ArrivalsOver for backward propagation.
func (p *Pass) RequiredOver(delays *canon.Bank, outputs ...int) error {
	if delays == nil {
		return errors.New("timing: RequiredOver needs a delay bank")
	}
	if delays.Cap() < len(p.g.Edges) {
		return fmt.Errorf("timing: delay bank has %d slots for %d edges", delays.Cap(), len(p.g.Edges))
	}
	if p.workers > 1 {
		return backwardPassParallel(p.g, p.bank, p.reach, delays, p.ctx, outputs, p.workers)
	}
	return backwardPass(p.g, p.bank, p.reach, delays, p.ctx, outputs)
}

// Required runs a backward propagation into the pass arena: after it, At(v)
// holds the maximum statistical delay from v to any of the given output
// vertices — the negated required time of the paper's eq. 15 when the
// required time at the outputs is zero.
func (p *Pass) Required(outputs ...int) error {
	if p.workers > 1 {
		delays := p.delaySource()
		if delays == nil {
			delays = p.g.EdgeDelays()
		}
		return backwardPassParallel(p.g, p.bank, p.reach, delays, p.ctx, outputs, p.workers)
	}
	return backwardPass(p.g, p.bank, p.reach, p.delaySource(), p.ctx, outputs)
}

// backwardPass is the serial backward propagation kernel shared by pooled
// passes and the persistent incremental state (see forwardPass). The
// backward kernel is already a per-vertex gather over Out[v], so the
// wavefront batching changes only the visit grouping, never the
// contribution order.
func backwardPass(g *Graph, bank *canon.Bank, reach []bool, delays *canon.Bank, ctx context.Context, outputs []int) error {
	lv, err := g.Levels()
	if err != nil {
		return err
	}
	if err := seedSources(g, bank, reach, outputs, "output"); err != nil {
		return err
	}
	scratch := bank.View(g.NumVerts)
	gatherOut := func(v int) {
		vv := bank.View(v)
		for _, ei := range g.Out[v] {
			to := g.Edges[ei].To
			if !reach[to] {
				continue
			}
			if delays != nil {
				canon.AddViews(scratch, bank.View(to), delays.View(int(ei)))
			} else {
				canon.AddFormView(scratch, bank.View(to), g.Edges[ei].Delay)
			}
			if !reach[v] {
				canon.CopyView(vv, scratch)
				reach[v] = true
			} else {
				canon.MaxViews(vv, vv, scratch)
			}
		}
	}
	if lv.Monotone {
		step := 0
		for k := lv.MaxLevel; k >= 0; k-- {
			wave := lv.Wave[lv.Starts[k]:lv.Starts[k+1]]
			for i := len(wave) - 1; i >= 0; i-- {
				if err := stepCtx(ctx, step); err != nil {
					return err
				}
				step++
				gatherOut(int(wave[i]))
			}
		}
		return nil
	}
	order, err := g.Order()
	if err != nil {
		return err
	}
	for i := len(order) - 1; i >= 0; i-- {
		if err := stepCtx(ctx, len(order)-1-i); err != nil {
			return err
		}
		gatherOut(order[i])
	}
	return nil
}

// backwardPassParallel fans each level's backward gathers out over a
// bounded pool. The backward kernel gathers over Out[v] in adjacency order
// for both the serial and parallel path, so intra-level scheduling cannot
// change any result bit.
func backwardPassParallel(g *Graph, bank *canon.Bank, reach []bool, delays *canon.Bank, ctx context.Context, outputs []int, workers int) error {
	if ctx == nil {
		ctx = context.Background() // ParallelForCtx needs a non-nil parent
	}
	lv, err := g.Levels()
	if err != nil {
		return err
	}
	if err := seedSources(g, bank, reach, outputs, "output"); err != nil {
		return err
	}
	stride := g.Space.Stride()
	slab := takeSlab(workers * stride)
	defer putSlab(slab)
	tmps := canon.NewBankOver(g.Space, workers, slab)

	gather := func(v int, tmp canon.View) {
		vv := bank.View(v)
		reached := reach[v] // pre-seeded outputs hold the zero constant
		for _, ei := range g.Out[v] {
			to := g.Edges[ei].To
			if !reach[to] {
				continue
			}
			canon.AddViews(tmp, bank.View(to), delays.View(int(ei)))
			if !reached {
				canon.CopyView(vv, tmp)
				reached = true
			} else {
				canon.MaxViews(vv, vv, tmp)
			}
		}
		reach[v] = reached
	}

	for k := lv.MaxLevel - 1; k >= 0; k-- {
		wave := lv.Wave[lv.Starts[k]:lv.Starts[k+1]]
		n := len(wave)
		chunks := workers
		if n < chunks*parallelLevelMin {
			if err := stepCtx(ctx, 0); err != nil {
				return err
			}
			tmp := tmps.View(0)
			for _, vi := range wave {
				gather(int(vi), tmp)
			}
			continue
		}
		err := ParallelForCtx(ctx, chunks, chunks, func(_ context.Context, c int) error {
			tmp := tmps.View(c)
			for _, vi := range wave[n*c/chunks : n*(c+1)/chunks] {
				gather(int(vi), tmp)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ArrivalAll propagates arrival times from all inputs simultaneously (every
// input at time zero) and returns the arrival form per vertex. Vertices not
// reachable from any input have a nil entry.
func (g *Graph) ArrivalAll() ([]*canon.Form, error) {
	return g.arrivalForms(g.Inputs)
}

// ArrivalFrom propagates arrival times exclusively from one input vertex
// (paper Section IV-B: arrival "exclusively from vi"). Unreachable vertices
// are nil.
func (g *Graph) ArrivalFrom(src int) ([]*canon.Form, error) {
	return g.arrivalForms([]int{src})
}

func (g *Graph) arrivalForms(sources []int) ([]*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(sources...); err != nil {
		return nil, err
	}
	return p.Forms(), nil
}

// DelayToOutput computes, for every vertex, the maximum statistical delay
// from that vertex to the given output vertex. Vertices that cannot reach
// the output are nil.
func (g *Graph) DelayToOutput(out int) ([]*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Required(out); err != nil {
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
	acc := p.Scratch()
	first := true
	for _, o := range g.Outputs {
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
	return acc.Form(g.Space), nil
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
	// SetIO accepts the port lists unvalidated; reject bad vertices here
	// with an error rather than an index panic (the criticality engine
	// depends on this surfacing promptly — see the pool-hang regression
	// test in internal/core).
	for _, in := range g.Inputs {
		if in < 0 || in >= g.NumVerts {
			return nil, fmt.Errorf("timing: input vertex %d out of range", in)
		}
	}
	for _, out := range g.Outputs {
		if out < 0 || out >= g.NumVerts {
			return nil, fmt.Errorf("timing: output vertex %d out of range", out)
		}
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
