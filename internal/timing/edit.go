package timing

import (
	"fmt"
	"math"

	"repro/internal/canon"
)

// This file is the mutation API of a live timing graph — the entry point of
// the incremental engine. Every edit keeps the graph's derived state
// consistent (the cached flat edge-delay bank is patched or transparently
// rebuilt, the topological order is preserved where it provably stays
// valid) and records dirty seed vertices so a subsequent Incremental.Update
// re-propagates only the affected fan-out/fan-in cones.
//
// Edits follow the same single-writer contract as AddEdge: they must not
// run concurrently with any reader (passes, incremental updates, other
// edits). The ssta.Session layer serializes them behind one mutex.

// MaxEditDelayPS bounds an edited edge delay: its mean's magnitude and its
// standard deviation. Real arcs are hundreds of picoseconds; far larger
// ones (a scale of 1e200) overflow the variances of every path through
// the edge to +Inf, and the Clark max folds those into a finite but
// meaningless answer.
const MaxEditDelayPS = 1e12

// checkEditDelay rejects an edited delay that is not finite or beyond
// MaxEditDelayPS.
func checkEditDelay(from, to int, f *canon.Form) error {
	return checkDelay(from, to, f.Nominal, f.Std())
}

// checkDelayView applies checkEditDelay's rule to a delay in flat storage
// and also rejects a negative private coefficient, which no form the
// engine builds has.
func checkDelayView(from, to int, v canon.View) error {
	if v.Rand() < 0 {
		return fmt.Errorf("timing: edge %d->%d delay has negative private coefficient %g", from, to, v.Rand())
	}
	return checkDelay(from, to, v.Nominal(), v.Std())
}

func checkDelay(from, to int, mean, sd float64) error {
	if !(math.Abs(mean) <= MaxEditDelayPS && sd <= MaxEditDelayPS) {
		return fmt.Errorf("timing: edge %d->%d delay (mean %g ps, std %g ps) is not finite or beyond %g ps", from, to, mean, sd, MaxEditDelayPS)
	}
	return nil
}

// dirtyOverflow caps the dirty-seed lists: once more seeds accumulate than
// the graph has vertices, precise tracking cannot beat a full re-propagation
// and the metadata collapses to the dirtyFull flag.
func (g *Graph) markDirty(fwdSeed, bwdSeed int) {
	if g.dirtyFull {
		return
	}
	if fwdSeed >= 0 {
		g.fwdDirty = append(g.fwdDirty, fwdSeed)
	}
	if bwdSeed >= 0 {
		g.bwdDirty = append(g.bwdDirty, bwdSeed)
	}
	if len(g.fwdDirty) > g.NumVerts || len(g.bwdDirty) > g.NumVerts {
		g.dirtyFull = true
		g.fwdDirty, g.bwdDirty = nil, nil
	}
}

// takeDirty hands the accumulated edit metadata to the (single) consumer
// and resets it.
func (g *Graph) takeDirty() (fwd, bwd []int, io, full bool) {
	fwd, bwd, io, full = g.fwdDirty, g.bwdDirty, g.dirtyIO, g.dirtyFull
	g.fwdDirty, g.bwdDirty, g.dirtyIO, g.dirtyFull = nil, nil, false, false
	return fwd, bwd, io, full
}

// dirtyPending reports whether the graph carries edit metadata not yet
// absorbed by an Incremental.Update (or Rebuild).
func (g *Graph) dirtyPending() bool {
	return g.dirtyFull || g.dirtyIO || len(g.fwdDirty) > 0 || len(g.bwdDirty) > 0
}

// liveEdge validates an edge index for mutation.
func (g *Graph) liveEdge(ei int) (*Edge, error) {
	if ei < 0 || ei >= len(g.Edges) {
		return nil, fmt.Errorf("timing: edge index %d out of range (%d edges)", ei, len(g.Edges))
	}
	e := &g.Edges[ei]
	if e.Removed {
		return nil, fmt.Errorf("timing: edge %d already removed", ei)
	}
	return e, nil
}

// SetEdgeDelay replaces the delay form of an edge. The previous form is
// never mutated (it may be shared with clones or caches); the cached flat
// delay bank is patched in place so it can never serve the stale value.
// A bank the old forms alias (a built or restored graph's) is copied on
// the first write and the copy patched from then on, so those forms, and
// every clone holding them, keep their values.
func (g *Graph) SetEdgeDelay(ei int, delay *canon.Form) error {
	e, err := g.liveEdge(ei)
	if err != nil {
		return err
	}
	if !delay.In(g.Space) {
		return fmt.Errorf("timing: edge %d delay form not in graph space", ei)
	}
	if err := checkEditDelay(e.From, e.To, delay); err != nil {
		return err
	}
	g.noteWrite(ei, e)
	e.Delay = delay
	g.delayMu.Lock()
	if g.delayBank != nil && g.delayBank.Cap() == len(g.Edges) {
		if g.delayShared {
			b := canon.NewBank(g.Space, len(g.Edges))
			copy(b.Data(), g.delayBank.Data())
			g.delayBank, g.delayShared = b, false
		}
		g.delayBank.View(ei).LoadForm(delay)
	}
	g.delayMu.Unlock()
	g.markDirty(e.To, e.From)
	return nil
}

// ScaleEdgeDelay multiplies every component of an edge's delay form by a
// positive factor — the canonical single-knob ECO edit (a resized driver, a
// re-bought cell). The form is cloned, not mutated.
func (g *Graph) ScaleEdgeDelay(ei int, scale float64) error {
	if !(scale > 0) {
		return fmt.Errorf("timing: edge %d scale %g must be positive", ei, scale)
	}
	e, err := g.liveEdge(ei)
	if err != nil {
		return err
	}
	return g.SetEdgeDelay(ei, e.Delay.Scale(scale))
}

// SetEdgeNominal replaces only the mean of an edge's delay, keeping its
// sensitivities — a nominal-delay ECO (wire resize, added repeater). The
// form is cloned, not mutated.
func (g *Graph) SetEdgeNominal(ei int, nominal float64) error {
	e, err := g.liveEdge(ei)
	if err != nil {
		return err
	}
	f := e.Delay.Clone()
	f.Nominal = nominal
	return g.SetEdgeDelay(ei, f)
}

// AddEdgeLive appends a delay edge to a live graph: it rejects edges that
// would create a cycle before mutating anything, and records precise dirty
// seeds instead of AddEdge's conservative whole-graph invalidation. The
// cached flat delay bank is invalidated structurally — its capacity no
// longer matches the edge count, so the next pass rebuilds it.
//
// When the new edge already respects the cached topological order, that
// order is kept: contribution order at every untouched vertex — and
// therefore every stored incremental arrival — stays exactly what a full
// pass would produce. An order-violating (but acyclic) edge forces an
// order recomputation, which reorders Clark-max operands at vertices far
// outside the edit's cone; the stored state is then conservatively marked
// fully dirty instead of being patched against a shifted order.
func (g *Graph) AddEdgeLive(from, to int, delay *canon.Form, lsens []float64, grid int) (int, error) {
	if from < 0 || from >= g.NumVerts || to < 0 || to >= g.NumVerts {
		return 0, fmt.Errorf("timing: edge %d->%d outside vertex range %d", from, to, g.NumVerts)
	}
	if err := checkEditDelay(from, to, delay); err != nil {
		return 0, err
	}
	if g.reaches(to, from) {
		return 0, fmt.Errorf("timing: edge %d->%d would create a cycle", from, to)
	}
	g.orderMu.Lock()
	order := g.order
	g.orderMu.Unlock()
	keepOrder := false
	if order != nil {
		posFrom, posTo := -1, -1
		for k, v := range order {
			if v == from {
				posFrom = k
			} else if v == to {
				posTo = k
			}
		}
		keepOrder = posFrom >= 0 && posTo >= 0 && posFrom < posTo
	}
	idx, err := g.addEdge(from, to, delay, lsens, grid)
	if err != nil {
		return 0, err
	}
	if keepOrder {
		g.order = order
		g.markDirty(to, from)
	} else {
		g.dirtyFull = true
	}
	return idx, nil
}

// RemoveEdge tombstones an edge: it disappears from the adjacency lists
// (and therefore from every propagation), while Edges keeps its slot so
// edge indices stay stable. The cached topological order remains valid —
// removing an edge can only relax ordering constraints — and the delay
// bank's slot simply goes unreferenced.
func (g *Graph) RemoveEdge(ei int) error {
	e, err := g.liveEdge(ei)
	if err != nil {
		return err
	}
	g.Out[e.From] = dropEdgeIndex(g.Out[e.From], int32(ei))
	g.In[e.To] = dropEdgeIndex(g.In[e.To], int32(ei))
	e.Removed = true
	g.topoGen++
	g.structGen++
	g.markDirty(e.To, e.From)
	return nil
}

// RetargetIO redeclares the graph's input and output ports. Old and new
// endpoint vertices are seeded dirty in both directions so an incremental
// state re-bases its arrival sources and required sinks.
func (g *Graph) RetargetIO(inputs, outputs []int, inNames, outNames []string) error {
	// Validate everything — including what SetIO would reject — before
	// marking any seed dirty, so a failed edit leaves no metadata behind.
	if len(inputs) != len(inNames) || len(outputs) != len(outNames) {
		return fmt.Errorf("timing: port name count mismatch (%d inputs / %d names, %d outputs / %d names)",
			len(inputs), len(inNames), len(outputs), len(outNames))
	}
	for _, v := range inputs {
		if v < 0 || v >= g.NumVerts {
			return fmt.Errorf("timing: input vertex %d out of range", v)
		}
	}
	for _, v := range outputs {
		if v < 0 || v >= g.NumVerts {
			return fmt.Errorf("timing: output vertex %d out of range", v)
		}
	}
	for _, v := range g.Inputs {
		g.markDirty(v, -1)
	}
	for _, v := range g.Outputs {
		g.markDirty(-1, v)
	}
	if err := g.SetIO(inputs, outputs, inNames, outNames); err != nil {
		return err
	}
	for _, v := range g.Inputs {
		g.markDirty(v, -1)
	}
	for _, v := range g.Outputs {
		g.markDirty(-1, v)
	}
	g.dirtyIO = true
	g.structGen++
	return nil
}

// reaches reports whether dst is reachable from src along Out edges — the
// cycle check of AddEdgeLive, run before any mutation.
func (g *Graph) reaches(src, dst int) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, g.NumVerts)
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.Out[v] {
			to := g.Edges[ei].To
			if to == dst {
				return true
			}
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return false
}

// dropEdgeIndex removes one edge index from an adjacency list in place,
// preserving the order of the remaining entries (contribution order is part
// of the numerical contract).
func dropEdgeIndex(list []int32, ei int32) []int32 {
	for k, v := range list {
		if v == ei {
			return append(list[:k], list[k+1:]...)
		}
	}
	return list
}
