package timing

import (
	"context"
	"errors"

	"repro/internal/canon"
)

// IncrementalTol is the early-termination threshold of the dirty-cone
// sweeps: a recomputed canonical form whose every component is within this
// absolute distance of the stored one is treated as unchanged and its cone
// is not pursued further. The residual it can leave behind is orders of
// magnitude below the 1e-9 equivalence the engine guarantees against a
// from-scratch pass.
const IncrementalTol = 1e-12

// Incremental is the persistent propagation state of a mutable graph — the
// paper's ECO argument turned into a data structure. A full forward pass is
// paid once at construction; after that, every batch of edits made through
// the Graph edit API (SetEdgeDelay, AddEdgeLive, RemoveEdge, RetargetIO,
// ...) is absorbed by Update, which re-propagates arrival times only
// through the dirty fan-out cones of the edited edges, terminating early
// where recomputed forms match the stored ones within IncrementalTol.
// Required times are maintained the same way through fan-in cones once
// EnableRequired is called.
//
// Unlike the pooled Pass arenas, the banks here are owned by the
// Incremental and live as long as the session does. An Incremental is bound
// to its graph and follows the graph's single-writer contract: Update and
// the graph's edit API must not run concurrently with each other or with
// any reader. At most one Incremental may consume a graph's edit stream;
// creating a second one detaches the first.
//
// Numerical contract: within one vertex the fan-in contributions are folded
// in topological order of their source vertices — the exact operation order
// of a full forward pass — so a sweep that recomputes a vertex reproduces
// the full pass bit for bit; divergence can enter only through cones cut at
// IncrementalTol.
type Incremental struct {
	g *Graph

	arr   *canon.Bank // arrival per vertex + 2 scratch slots
	reach []bool

	req      *canon.Bank // required-time state, nil until EnableRequired
	reqReach []bool

	order     []int   // snapshot of the graph order the state was built on
	topoPos   []int32 // vertex -> position in order
	sources   []int   // arrival sources (launch sources at last sync)
	sourceSet []bool
	outputs   []int // required sinks (graph outputs at last sync)
	outputSet []bool

	affected []bool  // per-vertex mark of the sweep in progress
	inbuf    []int32 // fan-in sort scratch

	stale bool // a failed update left the state unusable until Rebuild

	// Seed journal (EnableSeedJournal): dirty seeds absorbed by Update
	// accumulate here for a second-tier consumer. Graph.takeDirty has
	// exactly one consumer — this Incremental — so anything else keyed to
	// the same edit stream (incremental criticality) reads the journal
	// instead, at its own, possibly slower, cadence.
	journalOn  bool
	jFwd, jBwd []int
	jIO, jFull bool
}

// UpdateStats reports what one Update actually did.
type UpdateStats struct {
	// Forward is the number of vertices whose arrival was recomputed;
	// Backward the number of required-time recomputations (zero unless
	// EnableRequired). After a full rebuild both count every vertex swept.
	Forward  int
	Backward int
	// Full marks a fallback to full re-propagation (metadata overflow, a
	// raw AddEdge, or recovery from an interrupted update).
	Full bool
}

// NewIncremental builds persistent incremental state for the graph, paying
// one full forward pass from the graph's inputs.
func (g *Graph) NewIncremental() (*Incremental, error) {
	return g.NewIncrementalCtx(context.Background())
}

// NewIncrementalCtx is NewIncremental with cooperative cancellation.
func (g *Graph) NewIncrementalCtx(ctx context.Context) (*Incremental, error) {
	inc := &Incremental{g: g}
	if err := inc.Rebuild(ctx); err != nil {
		return nil, err
	}
	return inc, nil
}

// Rebuild discards the incremental state and recomputes it with full
// passes — the recovery path after an interrupted update, and the
// implementation of UpdateStats.Full.
func (inc *Incremental) Rebuild(ctx context.Context) error {
	g := inc.g
	inc.stale = true
	inc.journalSeeds(nil, nil, false, true) // full passes refresh everything
	g.takeDirty()                           // absorbed wholesale by the full pass
	order, err := g.Order()
	if err != nil {
		return err
	}
	if err := inc.syncIO(); err != nil {
		return err
	}
	inc.syncOrder(order)
	if inc.arr == nil {
		inc.arr = canon.NewBank(g.Space, g.NumVerts+2)
		inc.reach = make([]bool, g.NumVerts)
		inc.affected = make([]bool, g.NumVerts)
	}
	delays := g.EdgeDelays()
	if err := inc.walker(delays, forward).pass(ctx, inc.sources); err != nil {
		return err
	}
	if inc.req != nil {
		if err := inc.walker(delays, backward).pass(ctx, inc.outputs); err != nil {
			return err
		}
	}
	inc.stale = false
	return nil
}

// EnableRequired switches on required-time maintenance: one full backward
// pass now, incremental fan-in cone sweeps on every subsequent Update.
func (inc *Incremental) EnableRequired(ctx context.Context) error {
	if inc.req != nil {
		return nil
	}
	if inc.stale {
		return errors.New("timing: incremental state is stale; Rebuild first")
	}
	g := inc.g
	// Unabsorbed edits would be half-seen here: syncIO below rebases the
	// sources/outputs onto the graph's new IO, so a pending RetargetIO would
	// later seed new-and-new instead of old-and-new endpoints, leaving the
	// former sources never re-swept. Require a clean slate instead.
	if g.dirtyPending() {
		return errors.New("timing: graph has pending edits; Update before EnableRequired")
	}
	if err := inc.syncIO(); err != nil {
		return err
	}
	inc.req = canon.NewBank(g.Space, g.NumVerts+2)
	inc.reqReach = make([]bool, g.NumVerts)
	if err := inc.walker(g.EdgeDelays(), backward).pass(ctx, inc.outputs); err != nil {
		inc.req, inc.reqReach = nil, nil
		return err
	}
	return nil
}

// Update absorbs every edit made to the graph since the last Update (or
// construction), re-propagating through the affected cones only. On error
// (cancellation mid-sweep) the state is marked stale and the next Update
// falls back to a full rebuild.
func (inc *Incremental) Update(ctx context.Context) (UpdateStats, error) {
	g := inc.g
	fwd, bwd, io, full := g.takeDirty()
	inc.journalSeeds(fwd, bwd, io, full || inc.stale)
	if full || inc.stale {
		st := UpdateStats{Forward: g.NumVerts, Full: true}
		if inc.req != nil {
			st.Backward = g.NumVerts
		}
		return st, inc.Rebuild(ctx)
	}
	order, err := g.Order()
	if err != nil {
		return UpdateStats{}, err
	}
	if !sameOrder(order, inc.order) {
		inc.syncOrder(order)
	}
	if io {
		// Re-seed the union of old and new endpoints: endpoints present in
		// both sets recompute to their stored values and terminate the
		// sweep immediately.
		fwd = append(fwd, inc.sources...)
		fwd = append(fwd, g.LaunchSources()...)
		if inc.req != nil {
			bwd = append(bwd, inc.outputs...)
			bwd = append(bwd, g.Outputs...)
		}
		if err := inc.syncIO(); err != nil {
			inc.stale = true
			inc.journalSeeds(nil, nil, false, true)
			return UpdateStats{}, err
		}
	}
	delays := g.EdgeDelays()
	var st UpdateStats
	if st.Forward, err = inc.sweep(ctx, inc.walker(delays, forward), fwd); err != nil {
		inc.stale = true
		inc.journalSeeds(nil, nil, false, true) // interrupted sweep: partial state
		return st, err
	}
	if inc.req != nil {
		if st.Backward, err = inc.sweep(ctx, inc.walker(delays, backward), bwd); err != nil {
			inc.stale = true
			inc.journalSeeds(nil, nil, false, true)
			return st, err
		}
	}
	return st, nil
}

// EnableSeedJournal switches on seed journaling: from now on every Update
// records the dirty seeds it absorbs (and whether it fell back to a full
// rebuild or re-based IO) until TakeSeeds drains them. Downstream state
// keyed to the same edit stream — incremental criticality — refreshes from
// the journal at its own cadence, since the graph's own dirty metadata is
// consumed wholesale by Update.
func (inc *Incremental) EnableSeedJournal() {
	inc.journalOn = true
}

// TakeSeeds drains the seed journal: the forward/backward dirty seed
// vertices accumulated since the previous TakeSeeds, plus whether any
// update in between re-based IO or fell back to a full rebuild (full is
// also set when the journal overflowed — precise tracking stops paying
// beyond a graph's worth of seeds — or when journaling was enabled after
// updates had already run).
func (inc *Incremental) TakeSeeds() (fwd, bwd []int, io, full bool) {
	fwd, bwd, io, full = inc.jFwd, inc.jBwd, inc.jIO, inc.jFull
	inc.jFwd, inc.jBwd, inc.jIO, inc.jFull = nil, nil, false, false
	return fwd, bwd, io, full
}

// journalSeeds appends one Update's absorbed seeds to the journal.
func (inc *Incremental) journalSeeds(fwd, bwd []int, io, full bool) {
	if !inc.journalOn {
		return
	}
	if full || inc.jFull {
		inc.jFwd, inc.jBwd, inc.jIO, inc.jFull = nil, nil, false, true
		return
	}
	inc.jFwd = append(inc.jFwd, fwd...)
	inc.jBwd = append(inc.jBwd, bwd...)
	inc.jIO = inc.jIO || io
	if len(inc.jFwd)+len(inc.jBwd) > inc.g.NumVerts {
		inc.jFwd, inc.jBwd, inc.jIO, inc.jFull = nil, nil, false, true
	}
}

// walker returns the propagation walker over the persistent arrival
// (forward) or required-time (backward) state: full banks, addressed
// through the identity slot table.
func (inc *Incremental) walker(delays *canon.Bank, d direction) walker {
	n := inc.g.NumVerts
	w := walker{g: inc.g, bank: inc.arr, slot: identitySlots(n), scratch: n, reach: inc.reach, delays: delays, dir: d, fold: canon.MaxViews}
	if d == backward {
		w.bank, w.reach = inc.req, inc.reqReach
	}
	return w
}

// sweep re-propagates through the cones of the seed vertices — fan-out
// cones in topological order for forward, fan-in cones in reverse order for
// backward — stopping each branch as soon as a recomputed form matches the
// stored one. Each recomputation is the walker's own per-vertex gather, so
// it reproduces a full pass bit for bit.
func (inc *Incremental) sweep(ctx context.Context, w walker, seeds []int) (int, error) {
	if len(seeds) == 0 {
		return 0, nil
	}
	g := inc.g
	back := w.dir == backward
	seedSet, start, step := inc.sourceSet, len(inc.order), 1
	if back {
		seedSet, start, step = inc.outputSet, -1, -1
	}
	pending := 0
	for _, v := range seeds {
		if !inc.affected[v] {
			inc.affected[v] = true
			pending++
			if p := int(inc.topoPos[v]); back && p > start || !back && p < start {
				start = p
			}
		}
	}
	acc := w.bank.View(g.NumVerts)
	tmp := w.bank.View(g.NumVerts + 1)
	recomputed := 0
	for k := start; k >= 0 && k < len(inc.order) && pending > 0; k += step {
		v := inc.order[k]
		if !inc.affected[v] {
			continue
		}
		inc.affected[v] = false
		pending--
		if err := stepCtx(ctx, recomputed); err != nil {
			inc.clearAffected()
			return recomputed, err
		}
		recomputed++
		fanin, fanout := g.Out[v], g.In[v]
		if !back {
			fanin, fanout = inc.sortedFanin(v), g.Out[v]
		}
		if !inc.commit(w.bank.View(v), acc, &w.reach[v], w.gather(acc, tmp, fanin, seedSet[v])) {
			continue
		}
		for _, ei := range fanout {
			u := g.Edges[ei].To
			if back {
				u = g.Edges[ei].From
			}
			if !inc.affected[u] {
				inc.affected[u] = true
				pending++
			}
		}
	}
	return recomputed, nil
}

// commit stores a recomputed form and reports whether it differed from the
// stored state: a reachability flip always propagates, otherwise the cone
// is cut when every component matches within IncrementalTol. The fresh
// value is stored even on a cut, so sub-tolerance residues never compound
// at a vertex across updates.
func (inc *Incremental) commit(dst, acc canon.View, reach *bool, reached bool) bool {
	if reached != *reach {
		*reach = reached
		if reached {
			canon.CopyView(dst, acc)
		}
		return true
	}
	if !reached {
		return false
	}
	changed := false
	for i := range dst {
		if d := dst[i] - acc[i]; d > IncrementalTol || d < -IncrementalTol {
			changed = true
			break
		}
	}
	canon.CopyView(dst, acc)
	return changed
}

// sortedFanin returns v's fan-in edge indices in the contribution order
// of a full forward pass (see sortFanin). The order is derived per call, so
// Update stays proportional to the cone rather than rebuilding Levels.
func (inc *Incremental) sortedFanin(v int) []int32 {
	inc.inbuf = append(inc.inbuf[:0], inc.g.In[v]...)
	sortFanin(inc.inbuf, inc.g.Edges, inc.topoPos)
	return inc.inbuf
}

func (inc *Incremental) clearAffected() {
	for i := range inc.affected {
		inc.affected[i] = false
	}
}

func (inc *Incremental) syncOrder(order []int) {
	inc.order = order
	if inc.topoPos == nil {
		inc.topoPos = make([]int32, inc.g.NumVerts)
	}
	for k, v := range order {
		inc.topoPos[v] = int32(k)
	}
}

// syncIO re-bases the sources and outputs onto the graph's current ports,
// rejecting out-of-range vertices before any state is touched.
func (inc *Incremental) syncIO() error {
	g := inc.g
	sources := g.LaunchSources()
	if err := checkVerts(g, sources, "source"); err != nil {
		return err
	}
	if err := checkVerts(g, g.Outputs, "output"); err != nil {
		return err
	}
	inc.sources = exactInts(sources)
	if inc.sourceSet == nil {
		inc.sourceSet = make([]bool, g.NumVerts)
	}
	for i := range inc.sourceSet {
		inc.sourceSet[i] = false
	}
	for _, s := range inc.sources {
		inc.sourceSet[s] = true
	}
	inc.outputs = exactInts(g.Outputs)
	if inc.outputSet == nil {
		inc.outputSet = make([]bool, g.NumVerts)
	}
	for i := range inc.outputSet {
		inc.outputSet[i] = false
	}
	for _, o := range inc.outputs {
		inc.outputSet[o] = true
	}
	return nil
}

func sameOrder(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Reached reports whether vertex v is reachable from the current sources.
func (inc *Incremental) Reached(v int) bool { return inc.reach[v] }

// Arrival materializes vertex v's arrival form, or nil when unreached.
// Valid only after a successful Update (or construction).
func (inc *Incremental) Arrival(v int) (*canon.Form, error) {
	if inc.stale {
		return nil, errors.New("timing: incremental state is stale; Update or Rebuild first")
	}
	if !inc.reach[v] {
		return nil, nil
	}
	return inc.arr.View(v).Form(inc.g.Space), nil
}

// Required materializes vertex v's maximum delay to any output, or nil
// when v reaches none. EnableRequired must have been called.
func (inc *Incremental) Required(v int) (*canon.Form, error) {
	if inc.req == nil {
		return nil, errors.New("timing: required maintenance not enabled")
	}
	if inc.stale {
		return nil, errors.New("timing: incremental state is stale; Update or Rebuild first")
	}
	if !inc.reqReach[v] {
		return nil, nil
	}
	return inc.req.View(v).Form(inc.g.Space), nil
}

// MaxDelay folds the stored arrivals over the graph's outputs — the same
// operation order as Graph.MaxDelay's fold, read from persistent state
// instead of a fresh pass.
func (inc *Incremental) MaxDelay() (*canon.Form, error) {
	if inc.stale {
		return nil, errors.New("timing: incremental state is stale; Update or Rebuild first")
	}
	g := inc.g
	acc := inc.arr.View(g.NumVerts)
	first := true
	for _, o := range g.Outputs {
		if !inc.reach[o] {
			continue
		}
		if first {
			canon.CopyView(acc, inc.arr.View(o))
			first = false
		} else {
			canon.MaxViews(acc, acc, inc.arr.View(o))
		}
	}
	if first {
		return nil, errors.New("timing: no output reachable from any input")
	}
	return acc.Form(g.Space), nil
}

// Graph returns the graph the state is bound to.
func (inc *Incremental) Graph() *Graph { return inc.g }
