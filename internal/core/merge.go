package core

import (
	"slices"

	"repro/internal/canon"
	"repro/internal/timing"
)

// modelGraph is the mutable multigraph the merge operations work on. Edges
// and vertices are soft-deleted. The adjacency lists stay current through
// every edit: each holds the alive edge ids of its vertex in ascending
// order, exactly what a from-scratch scan of edges would produce, so a
// merge step never has to rebuild them.
type modelGraph struct {
	space  canon.Space
	nVerts int
	edges  []modelEdge
	inE    [][]int // alive fanin edge ids per vertex, ascending
	outE   [][]int // alive fanout edge ids per vertex, ascending
	isPort []bool
	vAlive []bool

	// parallelMerge scratch: sink multiplicities of the vertex in hand,
	// valid where mark equals stamp, and a snapshot of its fanout.
	mark  []int
	count []int
	stamp int
	fan   []int
}

type modelEdge struct {
	from, to int
	delay    *canon.Form
	alive    bool
}

// newModelGraph copies a timing graph into mutable form, dropping the edges
// marked for removal.
func newModelGraph(g *timing.Graph, removeEdge []bool) *modelGraph {
	m := &modelGraph{
		space:  g.Space,
		nVerts: g.NumVerts,
		edges:  make([]modelEdge, 0, len(g.Edges)),
		inE:    make([][]int, g.NumVerts),
		outE:   make([][]int, g.NumVerts),
		isPort: make([]bool, g.NumVerts),
		vAlive: make([]bool, g.NumVerts),
		mark:   make([]int, g.NumVerts),
		count:  make([]int, g.NumVerts),
	}
	for _, v := range g.Inputs {
		m.isPort[v] = true
	}
	for _, v := range g.Outputs {
		m.isPort[v] = true
	}
	for i := range m.vAlive {
		m.vAlive[i] = true
	}
	for ei := range g.Edges {
		if removeEdge != nil && removeEdge[ei] {
			continue
		}
		e := &g.Edges[ei]
		m.addEdge(e.From, e.To, e.Delay.Clone())
	}
	return m
}

// dropID removes edge id ei from the ascending list ids, keeping the order.
func dropID(ids []int, ei int) []int {
	if k, ok := slices.BinarySearch(ids, ei); ok {
		ids = slices.Delete(ids, k, k+1)
	}
	return ids
}

func (m *modelGraph) killEdge(ei int) {
	e := &m.edges[ei]
	if !e.alive {
		return
	}
	e.alive = false
	m.outE[e.from] = dropID(m.outE[e.from], ei)
	m.inE[e.to] = dropID(m.inE[e.to], ei)
}

// addEdge appends a new edge. Its id is the largest yet, so appending it
// keeps both endpoint lists ascending.
func (m *modelGraph) addEdge(from, to int, delay *canon.Form) int {
	ei := len(m.edges)
	m.edges = append(m.edges, modelEdge{from: from, to: to, delay: delay, alive: true})
	m.outE[from] = append(m.outE[from], ei)
	m.inE[to] = append(m.inE[to], ei)
	return ei
}

// killVertex kills v and its edges. It drops each edge from the far end's
// list only, since killEdge would edit v's own lists while they are being
// ranged over, and then clears v's lists whole.
func (m *modelGraph) killVertex(v int) {
	m.vAlive[v] = false
	for _, ei := range m.inE[v] {
		e := &m.edges[ei]
		e.alive = false
		m.outE[e.from] = dropID(m.outE[e.from], ei)
	}
	for _, ei := range m.outE[v] {
		e := &m.edges[ei]
		e.alive = false
		m.inE[e.to] = dropID(m.inE[e.to], ei)
	}
	m.inE[v], m.outE[v] = nil, nil
}

// trim removes internal (non-port) vertices that lost all fanin or all
// fanout: paths through them no longer connect an input to an output, so
// they contribute nothing to the delay matrix. Returns true on change.
func (m *modelGraph) trim() bool {
	changed := false
	for {
		round := false
		for v := 0; v < m.nVerts; v++ {
			if !m.vAlive[v] || m.isPort[v] {
				continue
			}
			in, out := len(m.inE[v]), len(m.outE[v])
			if in == 0 || out == 0 {
				m.killVertex(v)
				round = true
			}
		}
		if !round {
			return changed
		}
		changed = true
	}
}

// parallelMerge replaces every bundle of parallel edges (same source and
// sink) by one edge carrying their statistical maximum (paper Fig. 2).
// Returns true on change.
func (m *modelGraph) parallelMerge() bool {
	changed := false
	for v := 0; v < m.nVerts; v++ {
		if !m.vAlive[v] || len(m.outE[v]) < 2 {
			continue
		}
		// Count each sink's edges; a vertex without a repeated sink (the
		// common case) has nothing to merge.
		m.stamp++
		bundles := false
		for _, ei := range m.outE[v] {
			to := m.edges[ei].to
			if m.mark[to] != m.stamp {
				m.mark[to], m.count[to] = m.stamp, 0
			}
			m.count[to]++
			bundles = bundles || m.count[to] > 1
		}
		if !bundles {
			continue
		}
		// Bundles merge in the order their sinks first appear in outE: the
		// merged edges' order becomes the model's edge order, which fixes
		// the contribution order of every later Clark max. The fanout is
		// snapshotted because merging edits outE[v].
		m.fan = append(m.fan[:0], m.outE[v]...)
		for k, ei := range m.fan {
			to := m.edges[ei].to
			if m.count[to] < 2 {
				continue
			}
			m.count[to] = 0 // merged here, at the bundle's first edge
			merged := m.edges[ei].delay.Clone()
			m.killEdge(ei)
			for _, ej := range m.fan[k+1:] {
				if m.edges[ej].to == to {
					canon.MaxInto(merged, merged, m.edges[ej].delay)
					m.killEdge(ej)
				}
			}
			m.addEdge(v, to, merged)
			changed = true
		}
	}
	return changed
}

// serialMerge eliminates internal vertices with a single fanin (forward
// direction, paper Fig. 1a) or a single fanout (reverse direction, Fig. 1b),
// composing the edge delays with statistical sum. Returns true on change.
func (m *modelGraph) serialMerge() bool {
	changed := false
	for v := 0; v < m.nVerts; v++ {
		if !m.vAlive[v] || m.isPort[v] {
			continue
		}
		// The new edges never touch v, so in and out stay valid while they
		// are added; killVertex then drops v's own edges.
		in, out := m.inE[v], m.outE[v]
		switch {
		case len(in) == 1 && len(out) >= 1:
			src := m.edges[in[0]]
			for _, ei := range out {
				e := m.edges[ei]
				m.addEdge(src.from, e.to, canon.Add(src.delay, e.delay))
			}
			m.killVertex(v)
			changed = true
		case len(out) == 1 && len(in) >= 1:
			dst := m.edges[out[0]]
			for _, ei := range in {
				e := m.edges[ei]
				m.addEdge(e.from, dst.to, canon.Add(e.delay, dst.delay))
			}
			m.killVertex(v)
			changed = true
		}
	}
	return changed
}

// reduce runs trim + merge passes to fixpoint (paper Fig. 3, step 3).
func (m *modelGraph) reduce(maxIters int) {
	if maxIters <= 0 {
		maxIters = 1 << 20
	}
	for iter := 0; iter < maxIters; iter++ {
		changed := m.trim()
		if m.parallelMerge() {
			changed = true
		}
		if m.serialMerge() {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// counts returns alive vertex and edge counts.
func (m *modelGraph) counts() (verts, edges int) {
	for v := 0; v < m.nVerts; v++ {
		if !m.vAlive[v] {
			continue
		}
		// Ports always count; internal vertices count if connected.
		if m.isPort[v] || len(m.inE[v]) > 0 || len(m.outE[v]) > 0 {
			verts++
		}
	}
	for ei := range m.edges {
		if m.edges[ei].alive {
			edges++
		}
	}
	return verts, edges
}
