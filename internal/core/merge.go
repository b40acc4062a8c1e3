package core

import (
	"repro/internal/canon"
	"repro/internal/timing"
)

// modelGraph is the mutable multigraph the merge operations work on. Edges
// and vertices are soft-deleted; adjacency is rebuilt lazily per pass.
type modelGraph struct {
	space  canon.Space
	nVerts int
	edges  []modelEdge
	inE    [][]int // alive fanin edge ids per vertex
	outE   [][]int // alive fanout edge ids per vertex
	isPort []bool
	vAlive []bool
	dirty  bool
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
		isPort: make([]bool, g.NumVerts),
		vAlive: make([]bool, g.NumVerts),
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
		m.edges = append(m.edges, modelEdge{from: e.From, to: e.To, delay: e.Delay.Clone(), alive: true})
	}
	m.rebuild()
	return m
}

func (m *modelGraph) rebuild() {
	m.inE = make([][]int, m.nVerts)
	m.outE = make([][]int, m.nVerts)
	for ei := range m.edges {
		e := &m.edges[ei]
		if !e.alive {
			continue
		}
		m.inE[e.to] = append(m.inE[e.to], ei)
		m.outE[e.from] = append(m.outE[e.from], ei)
	}
	m.dirty = false
}

func (m *modelGraph) killEdge(ei int) {
	e := &m.edges[ei]
	if !e.alive {
		return
	}
	e.alive = false
	m.dirty = true
}

func (m *modelGraph) addEdge(from, to int, delay *canon.Form) int {
	m.edges = append(m.edges, modelEdge{from: from, to: to, delay: delay, alive: true})
	m.dirty = true
	return len(m.edges) - 1
}

func (m *modelGraph) killVertex(v int) {
	m.vAlive[v] = false
	for _, ei := range m.inE[v] {
		m.killEdge(ei)
	}
	for _, ei := range m.outE[v] {
		m.killEdge(ei)
	}
}

// trim removes internal (non-port) vertices that lost all fanin or all
// fanout: paths through them no longer connect an input to an output, so
// they contribute nothing to the delay matrix. Returns true on change.
func (m *modelGraph) trim() bool {
	changed := false
	for {
		if m.dirty {
			m.rebuild()
		}
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
	if m.dirty {
		m.rebuild()
	}
	changed := false
	for v := 0; v < m.nVerts; v++ {
		if !m.vAlive[v] || len(m.outE[v]) < 2 {
			continue
		}
		// Bundles merge in the order their sinks first appear in outE,
		// never in map order: the merged edges' order becomes the model's
		// edge order, which fixes the contribution order of every later
		// Clark max, so it must be the same on every run.
		groups := make(map[int][]int) // sink -> edge ids
		var sinks []int
		for _, ei := range m.outE[v] {
			to := m.edges[ei].to
			if _, seen := groups[to]; !seen {
				sinks = append(sinks, to)
			}
			groups[to] = append(groups[to], ei)
		}
		for _, to := range sinks {
			eids := groups[to]
			if len(eids) < 2 {
				continue
			}
			merged := m.edges[eids[0]].delay.Clone()
			for _, ei := range eids[1:] {
				canon.MaxInto(merged, merged, m.edges[ei].delay)
			}
			for _, ei := range eids {
				m.killEdge(ei)
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
	if m.dirty {
		m.rebuild()
	}
	changed := false
	for v := 0; v < m.nVerts; v++ {
		if !m.vAlive[v] || m.isPort[v] {
			continue
		}
		if m.dirty {
			m.rebuild()
		}
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
	if m.dirty {
		m.rebuild()
	}
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
