// Package timing implements the statistical timing graph of the paper's
// Section II: vertices are circuit pins (one per gate output and primary
// input), edges carry canonical first-order delay forms, and arrival times
// are propagated with statistical sum and Clark max.
//
// Besides the canonical form, every edge also carries the structural
// ground-truth data (nominal, per-parameter sensitivities, grid index,
// private-random sigma) so the Monte Carlo engine can sample the parameter
// space directly — independent of the PCA machinery it validates.
package timing

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/canon"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/place"
	"repro/internal/variation"
)

// Edge is one delay edge of the timing graph.
type Edge struct {
	From, To int
	Delay    *canon.Form

	// Ground-truth structural data for Monte Carlo (see package comment).
	// LSens[p] is the absolute delay sensitivity (ps) to the grid-local part
	// of parameter p; the sampled local value of grid Grid multiplies it.
	LSens []float64
	Grid  int

	// Removed marks a tombstoned edge (see Graph.RemoveEdge): it stays in
	// Edges so edge indices remain stable, but no adjacency list references
	// it and the propagation kernels never read it. Consumers that iterate
	// Edges directly (Monte Carlo, corner enumeration, criticality) require
	// tombstone-free graphs; the edit API is for session-owned graphs that
	// only run arrival/required propagation.
	Removed bool
}

// Register is one D-flip-flop of a sequential timing graph. The register's
// Q output is vertex Q, launched from the clock root through a clk->Q delay
// edge (ClkEdge); the data path being captured ends at vertex D — there is
// no D->Q edge, which is what keeps register feedback loops acyclic. Setup
// and Hold are the register's constraint values as canonical forms in the
// graph's space; SetupLSens/HoldLSens carry the absolute per-parameter local
// sensitivities at grid Grid for the Monte Carlo engine, mirroring
// Edge.LSens.
type Register struct {
	Name    string
	Q       int // vertex id of the Q output
	D       int // vertex id whose arrival the D pin captures
	ClkEdge int // edge index of the clock-root -> Q launch arc (-1 if absent)
	Grid    int // placement grid (-1 when the graph has no spatial model)

	Setup, Hold           *canon.Form
	SetupLSens, HoldLSens []float64
}

// Graph is a statistical timing graph.
type Graph struct {
	Space  canon.Space
	Params []variation.Parameter
	Grids  *variation.GridModel // nil for hand-built graphs without spatial model

	NumVerts int
	Edges    []Edge
	In       [][]int32 // fanin edge indices per vertex
	Out      [][]int32 // fanout edge indices per vertex

	Inputs  []int
	Outputs []int

	// Sequential metadata. Registers holds one entry per D-flip-flop;
	// ClockRoots the virtual clock source vertices (one for a flat graph,
	// one per registered instance in a stitched hierarchical top). Both are
	// empty for combinational graphs.
	Registers  []Register
	ClockRoots []int
	// Port names in Inputs/Outputs order, used to stitch module models into
	// a hierarchical design.
	InputNames  []string
	OutputNames []string

	// OutputLoadSlopes optionally holds, per output port, the additional
	// nominal delay (ps) the driving cell incurs per extra fanout beyond the
	// single load assumed during characterization. It enables load-aware
	// model use at design level — the paper's stated future work.
	OutputLoadSlopes []float64

	// Slew (slope) characterization at the module boundary, the other half
	// of the paper's future work. RefSlew is the input transition assumed
	// at the module's inputs during characterization; InputSlewSlopes holds
	// the delay added per ps of input transition beyond RefSlew, per input
	// port; OutputPortSlews the nominal output transition per output port;
	// OutputSlewSlopes the transition added per extra external load.
	RefSlew          float64
	InputSlewSlopes  []float64
	OutputPortSlews  []float64
	OutputSlewSlopes []float64

	// orderMu guards the lazy computation of order so concurrent passes
	// on a shared graph (AnalyzeBatch reusing one item.Graph, parallel
	// MaxDelay queries) publish it safely. AddEdge still must not run
	// concurrently with any reader.
	orderMu sync.Mutex
	order   []int

	// topoGen counts adjacency mutations (edge additions and removals). The
	// cached level structure keys on it because some edits — RemoveEdge,
	// order-preserving AddEdgeLive — keep the cached topological order valid
	// while still moving levels. Bumped under the single-writer contract.
	topoGen     uint64
	levelsCache levelsCache

	// delayMu guards delayBank, the flat edge-delay bank the propagation
	// kernels run on (see EdgeDelays), and delayShared, set while the
	// Edge.Delay forms alias the bank's slots (packEdges): such a bank is
	// immutable, and SetEdgeDelay copies it before its first patch.
	delayMu     sync.Mutex
	delayBank   *canon.Bank
	delayShared bool

	// Delta-checkpoint tracking (see MarkBase): structGen counts the edits
	// that change more than edge delays (added or removed edges, retargeted
	// ports), and base, once MarkBase has run, holds the delay slot each
	// edge had at the mark, for every edge written since.
	structGen uint64
	base      *deltaBase

	// Edit/dirty metadata consumed by the incremental engine (edit.go,
	// incremental.go): seed vertices whose arrival (fwdDirty) or required
	// time (bwdDirty) may have changed since the last Incremental.Update,
	// plus coarse flags for IO retargeting and metadata overflow. Mutations
	// and dirty consumption follow the same single-writer contract as
	// AddEdge: they must not run concurrently with any reader.
	fwdDirty  []int
	bwdDirty  []int
	dirtyIO   bool
	dirtyFull bool
}

// NewGraph creates an empty graph with nverts vertices.
func NewGraph(space canon.Space, nverts int, params []variation.Parameter) *Graph {
	return &Graph{
		Space:    space,
		Params:   params,
		NumVerts: nverts,
		In:       make([][]int32, nverts),
		Out:      make([][]int32, nverts),
	}
}

// AddEdge appends a delay edge and returns its index. The delay form must
// belong to the graph's space. For post-construction edits on a graph with
// live incremental state prefer AddEdgeLive, which rejects cycles up front
// and records precise dirty seeds; plain AddEdge conservatively marks the
// whole graph dirty.
func (g *Graph) AddEdge(from, to int, delay *canon.Form, lsens []float64, grid int) (int, error) {
	idx, err := g.addEdge(from, to, delay, lsens, grid)
	if err == nil {
		g.dirtyFull = true
	}
	return idx, err
}

func (g *Graph) addEdge(from, to int, delay *canon.Form, lsens []float64, grid int) (int, error) {
	if err := g.checkEnds(from, to); err != nil {
		return 0, err
	}
	if !delay.In(g.Space) {
		return 0, fmt.Errorf("timing: edge %d->%d delay form not in graph space", from, to)
	}
	idx := len(g.Edges)
	g.Edges = append(g.Edges, Edge{From: from, To: to, Delay: delay, LSens: lsens, Grid: grid})
	g.Out[from] = append(g.Out[from], int32(idx))
	g.In[to] = append(g.In[to], int32(idx))
	g.order = nil
	g.topoGen++
	g.structGen++
	return idx, nil
}

// checkEnds rejects an edge outside the vertex range or a self-loop.
func (g *Graph) checkEnds(from, to int) error {
	if from < 0 || from >= g.NumVerts || to < 0 || to >= g.NumVerts {
		return fmt.Errorf("timing: edge %d->%d outside vertex range %d", from, to, g.NumVerts)
	}
	if from == to {
		return fmt.Errorf("timing: self-loop on vertex %d", from)
	}
	return nil
}

// EdgeDelays returns the flat bank of the edge delays, one slot per edge
// index. The propagation and criticality kernels read edge delays from
// this bank so the innermost loops run over contiguous memory instead of
// chasing per-edge pointers.
//
// Build and FromSnapshot store each delay only here: every Edge.Delay is a
// form aliasing its slot (see packEdges). Other graphs build the bank from
// the forms on first use. A stale bank is detected by edge count, so plain
// AddEdge growth rebuilds it transparently (AddEdge itself stays
// lock-free), but callers that mutate an existing Edge.Delay form in place
// must call InvalidateDelays themselves. The returned bank is shared —
// treat it as read-only.
func (g *Graph) EdgeDelays() *canon.Bank {
	g.delayMu.Lock()
	defer g.delayMu.Unlock()
	if g.delayBank == nil || g.delayBank.Cap() != len(g.Edges) {
		b := canon.NewBank(g.Space, len(g.Edges))
		for i := range g.Edges {
			b.View(i).LoadForm(g.Edges[i].Delay)
		}
		g.delayBank, g.delayShared = b, false
	}
	return g.delayBank
}

// InvalidateDelays drops the cached flat edge-delay bank; the next
// propagation builds a private one from the forms. Required after mutating
// an Edge.Delay in place.
func (g *Graph) InvalidateDelays() {
	g.delayMu.Lock()
	g.delayBank, g.delayShared = nil, false
	g.delayMu.Unlock()
}

// packEdges moves the per-edge storage of a freshly assembled graph into a
// handful of slabs: the delay bank, one []canon.Form whose entries alias
// its slots, one slab of every LSens vector, and one each of the In and
// Out lists (live edges in index order, as AddEdge would append them).
// Each piece is a capacity-capped subslice, so a later append reallocates
// instead of spilling into a neighbour. bank, when non-nil, already holds
// the delays (FromSnapshot's decoded blob); otherwise it is filled from the
// Edge.Delay forms. The bank becomes the graph's EdgeDelays, shared with
// the forms and therefore immutable.
func (g *Graph) packEdges(bank *canon.Bank) {
	if bank == nil {
		bank = canon.NewBank(g.Space, len(g.Edges))
		for i := range g.Edges {
			bank.View(i).LoadForm(g.Edges[i].Delay)
		}
	}
	forms := make([]canon.Form, len(g.Edges))
	nls := 0
	for i := range g.Edges {
		nls += len(g.Edges[i].LSens)
	}
	ls := make([]float64, nls)
	for i := range g.Edges {
		e := &g.Edges[i]
		e.Delay = bank.View(i).Alias(g.Space, &forms[i])
		if n := len(e.LSens); n > 0 {
			copy(ls, e.LSens)
			e.LSens, ls = ls[:n:n], ls[n:]
		}
	}
	g.In = adjacency(g.NumVerts, g.Edges, func(e *Edge) int { return e.To })
	g.Out = adjacency(g.NumVerts, g.Edges, func(e *Edge) int { return e.From })
	g.delayBank, g.delayShared = bank, true
}

// adjacency returns, per vertex, the indices of the live edges whose end
// is that vertex, in index order, as capacity-capped subslices of one
// slab; a vertex without such edges gets nil.
func adjacency(nverts int, edges []Edge, end func(*Edge) int) [][]int32 {
	deg := make([]int, nverts)
	live := 0
	for i := range edges {
		if !edges[i].Removed {
			deg[end(&edges[i])]++
			live++
		}
	}
	slab := make([]int32, live)
	lists := make([][]int32, nverts)
	for v, d := range deg {
		if d > 0 {
			lists[v] = slab[:0:d]
			slab = slab[d:]
		}
	}
	for i := range edges {
		if !edges[i].Removed {
			v := end(&edges[i])
			lists[v] = append(lists[v], int32(i))
		}
	}
	return lists
}

// SetIO declares the input and output vertices with their port names. The
// copies are allocated capacity-exactly (append-to-nil rounds capacity up
// to a size class).
func (g *Graph) SetIO(inputs, outputs []int, inNames, outNames []string) error {
	if len(inputs) != len(inNames) || len(outputs) != len(outNames) {
		return errors.New("timing: port name count mismatch")
	}
	g.Inputs = exactInts(inputs)
	g.Outputs = exactInts(outputs)
	g.InputNames = make([]string, len(inNames))
	copy(g.InputNames, inNames)
	g.OutputNames = make([]string, len(outNames))
	copy(g.OutputNames, outNames)
	return nil
}

// Sequential reports whether the graph carries register metadata.
func (g *Graph) Sequential() bool { return len(g.Registers) > 0 }

// LaunchSources returns the vertices every full forward pass launches from:
// the primary inputs plus, on sequential graphs, the clock roots (register Q
// outputs launch from the clock through their clk->Q edges). Combinational
// graphs get exactly g.Inputs; the result must be treated as read-only.
func (g *Graph) LaunchSources() []int {
	if len(g.ClockRoots) == 0 {
		return g.Inputs
	}
	out := make([]int, 0, len(g.Inputs)+len(g.ClockRoots))
	out = append(out, g.Inputs...)
	out = append(out, g.ClockRoots...)
	return out
}

// Order returns a topological order of the vertices, computing and caching
// it on first use. Safe for concurrent readers; the returned slice is
// immutable once published.
func (g *Graph) Order() ([]int, error) {
	g.orderMu.Lock()
	defer g.orderMu.Unlock()
	if g.order != nil {
		return g.order, nil
	}
	indeg := make([]int, g.NumVerts)
	for v := range g.In {
		indeg[v] = len(g.In[v])
	}
	queue := make([]int, 0, g.NumVerts)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.NumVerts)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, ei := range g.Out[v] {
			to := g.Edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != g.NumVerts {
		return nil, errors.New("timing: graph contains a cycle")
	}
	g.order = order
	return order, nil
}

// Build constructs the statistical timing graph of a placed circuit against
// a cell library and grid model: one vertex per circuit node, one edge per
// gate fanin connection (paper Section II). The canonical space has one
// global per parameter and one component block per parameter.
//
// The graph comes out in walk order (see relayout): vertices are numbered
// by level, and each vertex's fan-in edges are consecutive and sorted the
// way a forward pass gathers them, so a flat pass reads its delay bank as
// one forward stream. Vertex ids therefore do not match circuit node ids;
// Inputs, Outputs, ClockRoots and Registers name the vertices.
//
// Sequential circuits get one extra virtual clock-root vertex (the only
// entry of g.ClockRoots, a level-0 vertex with no fan-in): each register's
// Q vertex is launched from it through a clk->Q delay edge, and the
// register's D-pin capture is recorded in g.Registers instead of a graph
// edge — register feedback therefore cannot create a cycle. A primary
// output that is itself a register maps to its D-source vertex in
// g.Outputs (the data arrival being captured), keeping MaxDelay and
// extraction meaningful on clocked designs.
func Build(c *circuit.Circuit, lib *cell.Library, plan *place.Plan, gm *variation.GridModel) (*Graph, error) {
	g, err := build(c, lib, plan, gm)
	if err != nil {
		return nil, err
	}
	return relayout(g)
}

// build is Build in circuit-node order: vertex id = circuit node id (the
// clock root, if any, is c.NumNodes()), edges appended gate by gate.
func build(c *circuit.Circuit, lib *cell.Library, plan *place.Plan, gm *variation.GridModel) (*Graph, error) {
	if len(lib.Params) == 0 {
		return nil, errors.New("timing: library has no variation parameters")
	}
	if gm == nil {
		return nil, errors.New("timing: nil grid model")
	}
	space := canon.Space{Globals: len(lib.Params), Components: len(lib.Params) * gm.Comps}
	nv := c.NumNodes()
	clkRoot := -1
	if c.Sequential() {
		clkRoot = nv
		nv++
	}
	g := NewGraph(space, nv, lib.Params)
	g.Grids = gm
	g.RefSlew = cell.RefSlew
	fanout := c.Fanout()

	// Nominal output transition per node: primary inputs arrive at the
	// reference transition; gates regenerate according to their cell spec
	// and fanout. The slew model is first order (output slew independent of
	// input slew), so one local pass suffices.
	outSlew := make([]float64, c.NumNodes())
	for id, gate := range c.Gates {
		if gate.Type == circuit.Input {
			outSlew[id] = cell.RefSlew
			continue
		}
		nf := len(fanout[id])
		if nf < 1 {
			nf = 1
		}
		s, err := lib.OutputSlew(gate.Type, nf)
		if err != nil {
			return nil, fmt.Errorf("timing: gate %q: %w", gate.Name, err)
		}
		outSlew[id] = s
	}

	// Each arc's delay is written straight into one node-order bank, and
	// the edges are packed over it (packEdges), so building makes no
	// allocation per edge.
	nedges := 0
	for _, gate := range c.Gates {
		switch gate.Type {
		case circuit.Input:
		case circuit.Dff:
			nedges++
		default:
			nedges += len(gate.Fanin)
		}
	}
	delays := canon.NewBank(space, nedges)
	np := len(lib.Params)
	lsens := make([]float64, nedges*np)
	g.Edges = make([]Edge, 0, nedges)
	addArc := func(from, to int, arc cell.Arc, grid int) (int, error) {
		if err := g.checkEnds(from, to); err != nil {
			return 0, err
		}
		ei := len(g.Edges)
		ls := lsens[ei*np : (ei+1)*np : (ei+1)*np]
		abs := func(p int) float64 { return arc.Sens[p] * lib.Params[p].Sigma }
		writeDelay(delays.View(ei), lib.Params, gm, grid, arc.Nominal, abs, arc.LoadAbs, ls)
		g.Edges = append(g.Edges, Edge{From: from, To: to, LSens: ls, Grid: grid})
		return ei, nil
	}

	sens := make([]float64, np) // every arc's sensitivities, in turn
	for id, gate := range c.Gates {
		if gate.Type == circuit.Input {
			continue
		}
		nf := len(fanout[id])
		if nf < 1 {
			nf = 1 // primary output drives one (virtual) load
		}
		grid := plan.Grid[id]
		if grid < 0 || grid >= gm.N() {
			return nil, fmt.Errorf("timing: gate %d grid %d outside model (%d grids)", id, grid, gm.N())
		}
		if gate.Type == circuit.Dff {
			// Register: the Q output launches from the clock root through the
			// clk->Q arc (pin 0, clock arriving at the reference transition);
			// the D-pin connection becomes capture metadata, not an edge.
			arc, err := lib.Arc(circuit.Dff, 0, nf)
			if err != nil {
				return nil, fmt.Errorf("timing: register %q: %w", gate.Name, err)
			}
			ei, err := addArc(clkRoot, id, arc, grid)
			if err != nil {
				return nil, err
			}
			rt := lib.RegTiming()
			setup, setupL := formFromConstraint(space, lib.Params, gm, rt.Setup, rt.SetupSens, rt.RandSigma, grid)
			hold, holdL := formFromConstraint(space, lib.Params, gm, rt.Hold, rt.HoldSens, rt.RandSigma, grid)
			g.Registers = append(g.Registers, Register{
				Name: gate.Name, Q: id, D: gate.Fanin[0], ClkEdge: ei, Grid: grid,
				Setup: setup, Hold: hold, SetupLSens: setupL, HoldLSens: holdL,
			})
			continue
		}
		for pin, src := range gate.Fanin {
			arc, err := lib.ArcAtSlew(gate.Type, pin, nf, outSlew[src], sens)
			if err != nil {
				return nil, fmt.Errorf("timing: gate %q: %w", gate.Name, err)
			}
			if _, err := addArc(src, id, arc, grid); err != nil {
				return nil, err
			}
		}
	}
	g.packEdges(delays)
	if clkRoot >= 0 {
		g.ClockRoots = []int{clkRoot}
	}

	inNames := make([]string, len(c.PIs))
	for i, pi := range c.PIs {
		inNames[i] = c.Gates[pi].Name
	}
	// A registered primary output exposes the data arrival its capture
	// register sees: the output vertex is the register's D source, under the
	// register's (port) name.
	outVerts := make([]int, len(c.POs))
	outNames := make([]string, len(c.POs))
	for i, po := range c.POs {
		outNames[i] = c.Gates[po].Name
		if c.Gates[po].Type == circuit.Dff {
			outVerts[i] = c.Gates[po].Fanin[0]
		} else {
			outVerts[i] = po
		}
	}
	if err := g.SetIO(c.PIs, outVerts, inNames, outNames); err != nil {
		return nil, err
	}
	// Record the boundary characterization for load- and slew-aware model
	// use at design level (paper future work): delay added per extra
	// external fanout, per-input-port delay slope against input transition,
	// and the nominal transition each output port presents downstream.
	g.OutputLoadSlopes = make([]float64, len(c.POs))
	g.OutputPortSlews = make([]float64, len(c.POs))
	g.OutputSlewSlopes = make([]float64, len(c.POs))
	for i, po := range c.POs {
		if spec, err := lib.Spec(c.Gates[po].Type); err == nil {
			g.OutputLoadSlopes[i] = spec.LoadSlope
			g.OutputPortSlews[i] = outSlew[po]
			g.OutputSlewSlopes[i] = spec.OutSlewSlope
		}
	}
	g.InputSlewSlopes = make([]float64, len(c.PIs))
	for i, pi := range c.PIs {
		// Mean slew sensitivity of the arcs the port feeds.
		var sum float64
		var n int
		for _, consumer := range fanout[pi] {
			if spec, err := lib.Spec(c.Gates[consumer].Type); err == nil {
				sum += spec.SlewSens
				n++
			}
		}
		if n > 0 {
			g.InputSlewSlopes[i] = sum / float64(n)
		}
	}
	if _, err := g.Order(); err != nil {
		return nil, err
	}
	return g, nil
}

// relayout returns g renumbered into walk order. Vertices take their
// position in Levels.Wave as their id, and edges are appended vertex by
// vertex in Levels.FaninSorted order, so every edge runs from a lower id to
// a higher one, edge ids ascend with To, and each In list is a run of
// consecutive ids already in gather order. A forward pass then streams
// through the delay bank and finds its fan-in arrivals a few waves back.
//
// g's topological order is level-monotone (Order is a FIFO Kahn pass), so
// the new ids are g's topological positions, and the relaid graph's own
// topological order is the identity: every vertex gathers the same
// contributions in the same order, and passes stay bit-identical. Backward
// passes gather fan-outs in adjacency order, which now follows To.
//
// The new graph is packed (packEdges): each delay is stored once, in the
// walk-order bank its passes read, and g's forms are left for the
// collector.
func relayout(g *Graph) (*Graph, error) {
	lv, err := g.Levels()
	if err != nil {
		return nil, err
	}
	newID := make([]int, g.NumVerts)
	for i, v := range lv.Wave {
		newID[v] = i
	}
	remap := func(vs []int) []int {
		out := make([]int, len(vs))
		for i, v := range vs {
			out[i] = newID[v]
		}
		return out
	}
	ng := NewGraph(g.Space, g.NumVerts, g.Params)
	ng.Edges = make([]Edge, 0, len(g.Edges))
	newEdge := make([]int, len(g.Edges))
	for _, v := range lv.Wave {
		for _, ei := range lv.FaninSorted(int(v)) {
			e := g.Edges[ei]
			e.From, e.To = newID[e.From], newID[e.To]
			newEdge[ei] = len(ng.Edges)
			ng.Edges = append(ng.Edges, e)
		}
	}
	ng.packEdges(nil)
	ng.dirtyFull = true // as AddEdge leaves a graph it assembles
	if err := ng.SetIO(remap(g.Inputs), remap(g.Outputs), g.InputNames, g.OutputNames); err != nil {
		return nil, err
	}
	if len(g.ClockRoots) > 0 {
		ng.ClockRoots = remap(g.ClockRoots)
	}
	for _, r := range g.Registers {
		r.Q, r.D = newID[r.Q], newID[r.D]
		if r.ClkEdge >= 0 {
			r.ClkEdge = newEdge[r.ClkEdge]
		}
		ng.Registers = append(ng.Registers, r)
	}
	ng.Grids = g.Grids
	ng.OutputLoadSlopes = g.OutputLoadSlopes
	ng.RefSlew = g.RefSlew
	ng.InputSlewSlopes = g.InputSlewSlopes
	ng.OutputPortSlews = g.OutputPortSlews
	ng.OutputSlewSlopes = g.OutputSlewSlopes
	if _, err := ng.Order(); err != nil {
		return nil, err
	}
	return ng, nil
}

// Clone returns an independent copy of the graph for session-style
// mutation: the edge list, adjacency lists and IO declarations are deep
// copied, while the delay forms, sensitivity vectors and boundary
// characterization slices are shared — the edit API never mutates a form in
// place (SetEdgeDelay replaces the pointer), so sharing them is safe and
// keeps cloning O(V+E) instead of O(V+E)·dim. The clone starts with clean
// edit metadata and no delay bank; its first pass builds a private one
// from the forms. Where the forms alias g's bank (a built or restored
// graph), that bank stays immutable: an edit of g copies it first (see
// SetEdgeDelay), so the clone's forms never change under it.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Space:            g.Space,
		Params:           g.Params,
		Grids:            g.Grids,
		NumVerts:         g.NumVerts,
		Edges:            make([]Edge, len(g.Edges)),
		In:               make([][]int32, len(g.In)),
		Out:              make([][]int32, len(g.Out)),
		Inputs:           exactInts(g.Inputs),
		Outputs:          exactInts(g.Outputs),
		Registers:        append([]Register(nil), g.Registers...),
		ClockRoots:       exactInts(g.ClockRoots),
		InputNames:       append([]string(nil), g.InputNames...),
		OutputNames:      append([]string(nil), g.OutputNames...),
		OutputLoadSlopes: g.OutputLoadSlopes,
		RefSlew:          g.RefSlew,
		InputSlewSlopes:  g.InputSlewSlopes,
		OutputPortSlews:  g.OutputPortSlews,
		OutputSlewSlopes: g.OutputSlewSlopes,
	}
	copy(ng.Edges, g.Edges)
	for v := range g.In {
		ng.In[v] = append([]int32(nil), g.In[v]...)
		ng.Out[v] = append([]int32(nil), g.Out[v]...)
	}
	// The cached order is immutable once published and stays valid for the
	// clone until its topology diverges (edits nil it per graph).
	g.orderMu.Lock()
	ng.order = g.order
	g.orderMu.Unlock()
	return ng
}

// writeDelay writes the canonical form of a delay at a grid location
// (paper eq. 3) into v: nominal, and per parameter p the absolute
// sensitivity abs(p) split into its global, grid-local and private shares,
// with extra private sigma beyond the parameters' random shares. The
// absolute local sensitivities go to lsens for the Monte Carlo engine.
func writeDelay(v canon.View, params []variation.Parameter, gm *variation.GridModel, grid int,
	nominal float64, abs func(p int) float64, extra float64, lsens []float64) {
	glob, loc := v[1:1+len(params)], v[1+len(params):len(v)-1]
	v.SetNominal(nominal)
	var rand2 float64
	row := gm.CoeffRow(grid)
	for p, par := range params {
		a := abs(p)
		glob[p] = a * sqrt(par.GlobalShare)
		ls := a * sqrt(par.LocalShare)
		lsens[p] = ls
		base := p * gm.Comps
		for k, c := range row {
			loc[base+k] = ls * c
		}
		r := a * sqrt(par.RandomShare)
		rand2 += r * r
	}
	rand2 += extra * extra
	v[len(v)-1] = sqrt(rand2)
}

// formFromConstraint converts a register constraint characterization
// (nominal value plus relative per-parameter sensitivities and a relative
// private mismatch sigma) at a grid location into a canonical form plus the
// absolute local sensitivities for Monte Carlo — the constraint analogue of
// an arc delay.
func formFromConstraint(space canon.Space, params []variation.Parameter, gm *variation.GridModel, nominal float64, relSens []float64, randSigma float64, grid int) (*canon.Form, []float64) {
	v := make(canon.View, space.Stride())
	lsens := make([]float64, len(params))
	abs := func(p int) float64 { return nominal * relSens[p] * params[p].Sigma }
	writeDelay(v, params, gm, grid, nominal, abs, nominal*randSigma, lsens)
	return v.Alias(space, new(canon.Form)), lsens
}

// sqrt clamps tiny negative share values (from float rounding) to zero.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
