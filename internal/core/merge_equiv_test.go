package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/timing"
)

// scanAdjacency derives the fan-in and fan-out lists of a model graph from
// scratch: every alive edge id, ascending, under both of its endpoints.
func scanAdjacency(nVerts int, edges []modelEdge) (in, out [][]int) {
	in, out = make([][]int, nVerts), make([][]int, nVerts)
	for ei, e := range edges {
		if e.alive {
			in[e.to] = append(in[e.to], ei)
			out[e.from] = append(out[e.from], ei)
		}
	}
	return in, out
}

// checkAdjacency fails unless m's maintained lists equal a rebuild.
func checkAdjacency(t *testing.T, m *modelGraph, step string) {
	t.Helper()
	in, out := scanAdjacency(m.nVerts, m.edges)
	for v := 0; v < m.nVerts; v++ {
		if !slices.Equal(m.inE[v], in[v]) || !slices.Equal(m.outE[v], out[v]) {
			t.Fatalf("%s: vertex %d lists in=%v out=%v, rebuild in=%v out=%v",
				step, v, m.inE[v], m.outE[v], in[v], out[v])
		}
	}
}

// refModel is the reference reduction: the merge passes of the paper's
// Fig. 3 over a graph whose adjacency is rebuilt from scratch before every
// vertex step, so no list is ever carried across an edit.
type refModel struct {
	nVerts    int
	edges     []modelEdge
	inE, outE [][]int
	isPort    []bool
	vAlive    []bool
}

func newRefModel(g *timing.Graph, removeEdge []bool) *refModel {
	r := &refModel{nVerts: g.NumVerts, isPort: make([]bool, g.NumVerts), vAlive: make([]bool, g.NumVerts)}
	for _, v := range append(slices.Clone(g.Inputs), g.Outputs...) {
		r.isPort[v] = true
	}
	for v := range r.vAlive {
		r.vAlive[v] = true
	}
	for ei, e := range g.Edges {
		if removeEdge == nil || !removeEdge[ei] {
			r.edges = append(r.edges, modelEdge{from: e.From, to: e.To, delay: e.Delay.Clone(), alive: true})
		}
	}
	return r
}

func (r *refModel) rebuild() { r.inE, r.outE = scanAdjacency(r.nVerts, r.edges) }

func (r *refModel) killVertex(v int) {
	r.vAlive[v] = false
	for ei := range r.edges {
		if e := &r.edges[ei]; e.from == v || e.to == v {
			e.alive = false
		}
	}
}

func (r *refModel) trim() bool {
	changed := false
	for round := true; round; {
		round = false
		for v := 0; v < r.nVerts; v++ {
			r.rebuild()
			if r.vAlive[v] && !r.isPort[v] && (len(r.inE[v]) == 0 || len(r.outE[v]) == 0) {
				r.killVertex(v)
				round, changed = true, true
			}
		}
	}
	return changed
}

func (r *refModel) parallelMerge() bool {
	changed := false
	for v := 0; v < r.nVerts; v++ {
		r.rebuild()
		if !r.vAlive[v] {
			continue
		}
		groups := make(map[int][]int)
		var sinks []int
		for _, ei := range r.outE[v] {
			to := r.edges[ei].to
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
			merged := r.edges[eids[0]].delay.Clone()
			for _, ei := range eids[1:] {
				canon.MaxInto(merged, merged, r.edges[ei].delay)
			}
			for _, ei := range eids {
				r.edges[ei].alive = false
			}
			r.edges = append(r.edges, modelEdge{from: v, to: to, delay: merged, alive: true})
			changed = true
		}
	}
	return changed
}

func (r *refModel) serialMerge() bool {
	changed := false
	for v := 0; v < r.nVerts; v++ {
		r.rebuild()
		if !r.vAlive[v] || r.isPort[v] {
			continue
		}
		in, out := r.inE[v], r.outE[v]
		switch {
		case len(in) == 1 && len(out) >= 1:
			src := r.edges[in[0]]
			for _, ei := range out {
				e := r.edges[ei]
				r.edges = append(r.edges, modelEdge{from: src.from, to: e.to, delay: canon.Add(src.delay, e.delay), alive: true})
			}
		case len(out) == 1 && len(in) >= 1:
			dst := r.edges[out[0]]
			for _, ei := range in {
				e := r.edges[ei]
				r.edges = append(r.edges, modelEdge{from: e.from, to: dst.to, delay: canon.Add(e.delay, dst.delay), alive: true})
			}
		default:
			continue
		}
		r.killVertex(v)
		changed = true
	}
	return changed
}

func (r *refModel) reduce() {
	for {
		changed := r.trim()
		changed = r.parallelMerge() || changed
		changed = r.serialMerge() || changed
		if !changed {
			return
		}
	}
}

// randomDAG builds a random module graph: vertices in topological index
// order, parallel edges and long skips included, a few inputs among the
// first vertices and a few outputs among the last.
func randomDAG(t *testing.T, rng *rand.Rand) *timing.Graph {
	t.Helper()
	space := canon.Space{Globals: 1, Components: 3}
	n := 6 + rng.Intn(30)
	g := timing.NewGraph(space, n, nil)
	nIn, nOut := 1+rng.Intn(3), 1+rng.Intn(3)
	nEdges := n + rng.Intn(3*n)
	for k := 0; k < nEdges; k++ {
		from := rng.Intn(n - 1)
		to := from + 1 + rng.Intn(min(n-1-from, 1+rng.Intn(6)))
		f := space.Const(1 + 10*rng.Float64())
		for i := range f.Glob {
			f.Glob[i] = rng.Float64() - 0.3
		}
		for i := range f.Loc {
			f.Loc[i] = rng.Float64() - 0.3
		}
		f.Rand = rng.Float64()
		if _, err := g.AddEdge(from, to, f, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	ins, outs := make([]int, nIn), make([]int, nOut)
	inNames, outNames := make([]string, nIn), make([]string, nOut)
	for i := range ins {
		ins[i], inNames[i] = i, fmt.Sprint("i", i)
	}
	for j := range outs {
		outs[j], outNames[j] = n-1-j, fmt.Sprint("o", j)
	}
	if err := g.SetIO(ins, outs, inNames, outNames); err != nil {
		t.Fatal(err)
	}
	return g
}

func randomMask(rng *rand.Rand, n int) []bool {
	if rng.Intn(4) == 0 {
		return nil
	}
	mask := make([]bool, n)
	p := 0.4 * rng.Float64()
	for i := range mask {
		mask[i] = rng.Float64() < p
	}
	return mask
}

// TestModelGraphListsMatchRebuild drives random edits through addEdge,
// killEdge and killVertex, and the merge passes themselves, and requires
// the maintained adjacency to equal a from-scratch rebuild after each one.
func TestModelGraphListsMatchRebuild(t *testing.T) {
	rng := newTestRand(41)
	for trial := 0; trial < 200; trial++ {
		g := randomDAG(t, rng)
		m := newModelGraph(g, randomMask(rng, len(g.Edges)))
		checkAdjacency(t, m, "build")
		for op := 0; op < 40; op++ {
			switch k := rng.Intn(3); {
			case k == 0:
				from := rng.Intn(m.nVerts - 1)
				to := from + 1 + rng.Intn(m.nVerts-1-from)
				m.addEdge(from, to, m.space.Const(1))
			case k == 1 && len(m.edges) > 0:
				m.killEdge(rng.Intn(len(m.edges)))
			default:
				m.killVertex(rng.Intn(m.nVerts))
			}
			checkAdjacency(t, m, fmt.Sprintf("trial %d op %d", trial, op))
		}

		m = newModelGraph(g, randomMask(rng, len(g.Edges)))
		for pass := 0; pass < 8; pass++ {
			changed := m.trim()
			checkAdjacency(t, m, "trim")
			changed = m.parallelMerge() || changed
			checkAdjacency(t, m, "parallelMerge")
			changed = m.serialMerge() || changed
			checkAdjacency(t, m, "serialMerge")
			if !changed {
				break
			}
		}
	}
}

// TestReduceMatchesReference reduces random DAGs under random removal
// masks and requires the result to equal the reference reduction edge for
// edge and bit for bit: same edge ids, endpoints, liveness and delay words,
// and the same surviving vertices.
func TestReduceMatchesReference(t *testing.T) {
	rng := newTestRand(43)
	for trial := 0; trial < 300; trial++ {
		g := randomDAG(t, rng)
		mask := randomMask(rng, len(g.Edges))
		m := newModelGraph(g, mask)
		// Bounded, so adjacency that goes stale makes the reduction differ
		// instead of spinning: the reference converges in a few passes.
		m.reduce(1000)
		r := newRefModel(g, mask)
		r.reduce()

		if !slices.Equal(m.vAlive, r.vAlive) {
			t.Fatalf("trial %d: alive vertices %v, reference %v", trial, m.vAlive, r.vAlive)
		}
		if len(m.edges) != len(r.edges) {
			t.Fatalf("trial %d: %d edges, reference %d", trial, len(m.edges), len(r.edges))
		}
		for ei := range m.edges {
			a, b := m.edges[ei], r.edges[ei]
			if a.from != b.from || a.to != b.to || a.alive != b.alive || !sameFormBits(a.delay, b.delay) {
				t.Fatalf("trial %d: edge %d is %d->%d alive=%v %v, reference %d->%d alive=%v %v",
					trial, ei, a.from, a.to, a.alive, a.delay, b.from, b.to, b.alive, b.delay)
			}
		}
		checkAdjacency(t, m, fmt.Sprintf("trial %d reduced", trial))
	}
}

func sameFormBits(a, b *canon.Form) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Nominal, b.Nominal) || !same(a.Rand, b.Rand) || len(a.Glob) != len(b.Glob) || len(a.Loc) != len(b.Loc) {
		return false
	}
	for i := range a.Glob {
		if !same(a.Glob[i], b.Glob[i]) {
			return false
		}
	}
	for i := range a.Loc {
		if !same(a.Loc[i], b.Loc[i]) {
			return false
		}
	}
	return true
}
