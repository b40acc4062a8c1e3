package timing

import "sync"

// Levels is the cached level structure of an acyclic timing graph: the
// longest-path level of every vertex, the vertices batched into per-level
// wavefronts, and a fan-in gather plan. One level structure serves three
// consumers — the propagation walker (propagate.go), the criticality
// engine's level-cutset construction (internal/core), and the incremental
// criticality cone analysis — so the level computation lives here exactly
// once.
type Levels struct {
	// Level[v] is the length of the longest edge path ending at v; vertices
	// without fan-in sit at level 0. Every edge goes from a strictly lower
	// level to a higher one, so the level boundaries are the paper's cutsets:
	// every input-to-output path crosses each boundary between consecutive
	// levels exactly once.
	Level    []int32
	MaxLevel int

	// TopoPos[v] is v's position in the topological order the structure was
	// built on — the contribution-order key of the forward gather.
	TopoPos []int32

	// Wave holds all vertices grouped by level: Wave[Starts[k]:Starts[k+1]]
	// is level k, in topological order within the level. Walking the waves
	// up (or down) visits every vertex after all of its fan-in (or
	// fan-out); since each vertex gathers its contributions in a fixed
	// order, the visit order within a level never affects a result.
	Wave   []int32
	Starts []int32

	// gather/gatherOff form a CSR plan over the fan-in edge indices of every
	// vertex, sorted by the topological position of the source vertex
	// (stable) — the same order Incremental.sortedFanin derives per vertex,
	// which is what makes an incremental recomputation reproduce the full
	// pass bit for bit.
	gather    []int32
	gatherOff []int32
}

// FaninSorted returns v's fan-in edge indices sorted by source topological
// position — the exact contribution order of a full forward pass at v.
func (lv *Levels) FaninSorted(v int) []int32 {
	return lv.gather[lv.gatherOff[v]:lv.gatherOff[v+1]]
}

// levelsCache is the lazily built Levels structure plus the inputs it was
// derived from: the published order slice and the graph's topology
// generation (adjacency edits bump it without necessarily touching the
// order — RemoveEdge and order-preserving AddEdgeLive keep the cached order
// but can still move levels).
type levelsCache struct {
	mu     sync.Mutex
	levels *Levels
	order  []int
	gen    uint64
}

// Levels returns the graph's level structure, computing and caching it on
// first use. Safe for concurrent readers under the graph's usual contract
// (mutations must not run concurrently with any reader); the returned
// structure is immutable once published.
func (g *Graph) Levels() (*Levels, error) {
	order, err := g.Order()
	if err != nil {
		return nil, err
	}
	c := &g.levelsCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.levels != nil && c.gen == g.topoGen && sameOrder(order, c.order) {
		return c.levels, nil
	}
	c.levels = buildLevels(g, order)
	c.order = order
	c.gen = g.topoGen
	return c.levels, nil
}

// buildLevels computes the level structure for one topological order.
func buildLevels(g *Graph, order []int) *Levels {
	n := g.NumVerts
	lv := &Levels{
		Level:   make([]int32, n),
		TopoPos: make([]int32, n),
	}
	var maxL int32
	for pos, v := range order {
		lv.TopoPos[v] = int32(pos)
		var l int32
		for _, ei := range g.In[v] {
			if fl := lv.Level[g.Edges[ei].From] + 1; fl > l {
				l = fl
			}
		}
		lv.Level[v] = l
		if l > maxL {
			maxL = l
		}
	}
	lv.MaxLevel = int(maxL)

	// Counting sort of the order into per-level waves; iteration in order
	// keeps the grouping stable, so waves are topologically sorted within a
	// level even when the order is not globally level-monotone (order-
	// preserving live edits can leave such an order cached).
	starts := make([]int32, maxL+2)
	for _, v := range order {
		starts[lv.Level[v]+1]++
	}
	for k := 1; k < len(starts); k++ {
		starts[k] += starts[k-1]
	}
	lv.Starts = starts
	lv.Wave = make([]int32, len(order))
	fill := append([]int32(nil), starts[:maxL+1]...)
	for _, v := range order {
		k := lv.Level[v]
		lv.Wave[fill[k]] = int32(v)
		fill[k]++
	}

	// Fan-in gather plan, sorted by source topological position.
	lv.gatherOff = make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		lv.gatherOff[v] = int32(total)
		total += len(g.In[v])
	}
	lv.gatherOff[n] = int32(total)
	lv.gather = make([]int32, total)
	for v := 0; v < n; v++ {
		buf := lv.gather[lv.gatherOff[v]:lv.gatherOff[v+1]]
		copy(buf, g.In[v])
		sortFanin(buf, g.Edges, lv.TopoPos)
	}
	return lv
}

// sortFanin orders fan-in edge indices by the topological position of their
// source vertex, stable for equal positions — the contribution order of a
// forward pass at the vertex. Fan-ins are gate-arity tiny and appended in a
// single global edge sequence, so they arrive almost sorted; insertion sort
// is both cheap and stable.
func sortFanin(buf []int32, edges []Edge, pos []int32) {
	for i := 1; i < len(buf); i++ {
		ei := buf[i]
		p := pos[edges[ei].From]
		j := i - 1
		for j >= 0 && pos[edges[buf[j]].From] > p {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = ei
	}
}

// frontierPlan maps the vertices of a forward pass onto the slots of an
// arena sized by the pass's widest frontier rather than by the graph. The
// forward passes whose callers read only output and register D pin
// arrivals afterwards (see Graph.acquireFrontier) run in such an arena: an
// arrival is dead once its last fan-out has gathered it, unless the
// caller reads it.
//
// Walking Levels.Wave, each vertex takes the most recently freed slot (a
// fresh one when none is free). Its slot is freed once its last fan-out
// has gathered, after that fan-out took its own slot, so a vertex never
// writes into the slot of an arrival it still reads; a vertex without
// fan-out frees its slot as soon as it is written. Kept vertices (the
// outputs and D pins) hold their slots to the end of the pass.
type frontierPlan struct {
	levels *Levels
	kept   []int // Graph.Outputs followed by every register's D, as planned

	slot  []int32 // vertex -> arena slot during the walk
	read  []int32 // vertex -> arena slot after it: slot when kept, else -1
	slots int     // arena slots the walk uses; the two scratch slots follow
}

// frontierCache is the lazily built frontier plan of a graph. The plan
// depends on the level structure and on the kept set, so it is rebuilt
// when either changes: RetargetIO keeps the cached Levels but moves the
// outputs.
type frontierCache struct {
	mu   sync.Mutex
	plan *frontierPlan
}

// frontier returns the graph's frontier plan, building and caching it when
// the level structure or the kept set changed since the last one. Safe for
// concurrent readers, like Levels; the returned plan is immutable.
func (g *Graph) frontier() (*frontierPlan, error) {
	lv, err := g.Levels()
	if err != nil {
		return nil, err
	}
	c := &g.frontierCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if fp := c.plan; fp != nil && fp.levels == lv && fp.keeps(g) {
		return fp, nil
	}
	kept := make([]int, 0, len(g.Outputs)+len(g.Registers))
	kept = append(kept, g.Outputs...)
	for i := range g.Registers {
		kept = append(kept, g.Registers[i].D)
	}
	c.plan = buildFrontier(g, lv, kept)
	return c.plan, nil
}

// keeps reports whether the plan was built for g's current outputs and D
// pins, in order.
func (fp *frontierPlan) keeps(g *Graph) bool {
	no := len(g.Outputs)
	if len(fp.kept) != no+len(g.Registers) {
		return false
	}
	for i, o := range g.Outputs {
		if fp.kept[i] != o {
			return false
		}
	}
	for i := range g.Registers {
		if fp.kept[no+i] != g.Registers[i].D {
			return false
		}
	}
	return true
}

// buildFrontier assigns the arena slots of a forward walk over lv. Kept
// vertices outside the graph are left to the callers' own range checks.
func buildFrontier(g *Graph, lv *Levels, kept []int) *frontierPlan {
	n := g.NumVerts
	fp := &frontierPlan{levels: lv, kept: kept, slot: make([]int32, n), read: make([]int32, n)}
	keep := make([]bool, n)
	for _, v := range kept {
		if v >= 0 && v < n {
			keep[v] = true
		}
	}
	// unread[u] counts u's fan-out edges whose far end has not gathered yet.
	unread := make([]int32, n)
	for v := range unread {
		unread[v] = int32(len(g.Out[v]))
	}
	var free []int32
	release := func(v int) {
		if !keep[v] {
			free = append(free, fp.slot[v])
		}
	}
	for _, w := range lv.Wave {
		v := int(w)
		if k := len(free); k > 0 {
			fp.slot[v], free = free[k-1], free[:k-1]
		} else {
			fp.slot[v] = int32(fp.slots)
			fp.slots++
		}
		for _, ei := range g.In[v] {
			u := g.Edges[ei].From
			if unread[u]--; unread[u] == 0 {
				release(u)
			}
		}
		if unread[v] == 0 {
			release(v)
		}
	}
	for v := range fp.read {
		fp.read[v] = -1
		if keep[v] {
			fp.read[v] = fp.slot[v]
		}
	}
	return fp
}
