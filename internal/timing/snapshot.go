package timing

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/canon"
	"repro/internal/variation"
)

// This file is the durable representation of a live timing graph — the
// session-checkpoint payload (ROADMAP item 5a). Unlike the extracted-model
// serializer in internal/core, which persists clean boundary models, a
// GraphSnapshot captures a graph mid-edit-history: tombstoned edges keep
// their slots (edge indices are API surface for the edit vocabulary), the
// Monte Carlo ground-truth data rides along, and the cached topological
// order is preserved because Clark-max contribution order — and therefore
// the exact propagated numbers — depends on it.
//
// The edge delay forms, nearly all of a snapshot's numbers, travel as one
// packed blob (GraphSnapshot.Delays): the graph's flat delay bank, written
// as little-endian float64s, which encoding/json carries as base64. Every
// other field stays JSON. Decimal floats were ~113 JSON numbers per edge
// and dominated the checkpoint's size and encode time; on a 2-vCPU Intel
// Xeon KVM guest with go1.24.0, a c7552 session checkpoint went from
// 15.3 MB to 8.0 MB and its encode from 160-187 ms to 26-31 ms.
//
// FromSnapshot validates everything before trusting it: the snapshot may
// come off a disk that lied (the store envelope catches torn bytes, not a
// hostile or skewed payload), and it is fuzzed. Bounds are checked before
// any size-proportional allocation. Each packed delay must obey the rule
// edits do (finite, |mean| and std within MaxEditDelayPS, no negative
// private coefficient), since a blob, unlike JSON, can carry NaN and ±Inf.
//
// A delta checkpoint carries only the delay slots that changed since a
// full snapshot (MarkBase, AppendDelta, PatchDelays at the end of this
// file); restore patches them into the full snapshot's Delays, so a
// patched slot meets the same FromSnapshot checks as any other.

// Snapshot size caps: generous multiples of the largest graphs the repo
// builds (tens of thousands of vertices), small enough that a hostile
// snapshot cannot make FromSnapshot allocate unbounded memory.
const (
	maxSnapshotVerts      = 1 << 21
	maxSnapshotEdges      = 1 << 23
	maxSnapshotGlobals    = 1 << 12
	maxSnapshotComponents = 1 << 18
	maxSnapshotGridCells  = 1 << 10
)

// EdgeSnapshot is one edge of a GraphSnapshot, tombstones included. Its
// delay form is the edge's slot of GraphSnapshot.Delays.
type EdgeSnapshot struct {
	From    int       `json:"from"`
	To      int       `json:"to"`
	LSens   []float64 `json:"lsens,omitempty"`
	Grid    int       `json:"grid,omitempty"`
	Removed bool      `json:"removed,omitempty"`
}

// RegisterSnapshot is one register of a sequential GraphSnapshot, carrying
// the constraint forms and the Monte Carlo ground-truth sensitivities.
type RegisterSnapshot struct {
	Name    string `json:"name"`
	Q       int    `json:"q"`
	D       int    `json:"d"`
	ClkEdge int    `json:"clk_edge"`
	Grid    int    `json:"grid,omitempty"`

	SetupNominal float64   `json:"setup_nominal"`
	SetupGlob    []float64 `json:"setup_glob,omitempty"`
	SetupLoc     []float64 `json:"setup_loc,omitempty"`
	SetupRand    float64   `json:"setup_rand,omitempty"`
	SetupLSens   []float64 `json:"setup_lsens,omitempty"`

	HoldNominal float64   `json:"hold_nominal"`
	HoldGlob    []float64 `json:"hold_glob,omitempty"`
	HoldLoc     []float64 `json:"hold_loc,omitempty"`
	HoldRand    float64   `json:"hold_rand,omitempty"`
	HoldLSens   []float64 `json:"hold_lsens,omitempty"`
}

// ParamSnapshot mirrors variation.Parameter.
type ParamSnapshot struct {
	Name        string  `json:"name"`
	Sigma       float64 `json:"sigma"`
	GlobalShare float64 `json:"global_share"`
	LocalShare  float64 `json:"local_share"`
	RandomShare float64 `json:"random_share"`
}

// GridSnapshot carries the grid geometry and correlation knobs from which
// the PCA grid model is rebuilt deterministically (same convention as the
// extracted-model serializer).
type GridSnapshot struct {
	NX          int     `json:"nx"`
	NY          int     `json:"ny"`
	Pitch       float64 `json:"pitch"`
	RhoNeighbor float64 `json:"rho_neighbor"`
	RhoFloor    float64 `json:"rho_floor"`
	Range       float64 `json:"range"`
}

// GraphSnapshot is the complete durable state of a timing graph.
type GraphSnapshot struct {
	Globals    int `json:"globals"`
	Components int `json:"components"`
	NumVerts   int `json:"num_verts"`

	Edges []EdgeSnapshot `json:"edges"`
	// Delays is the graph's edge-delay bank (Graph.EdgeDelays), packed:
	// Space.Stride() little-endian float64s per edge slot, in edge order,
	// tombstones included, each slot in the canon.View layout.
	Delays []byte `json:"delays"`

	Inputs      []int    `json:"inputs,omitempty"`
	Outputs     []int    `json:"outputs,omitempty"`
	InputNames  []string `json:"input_names,omitempty"`
	OutputNames []string `json:"output_names,omitempty"`

	Registers  []RegisterSnapshot `json:"registers,omitempty"`
	ClockRoots []int              `json:"clock_roots,omitempty"`

	OutputLoadSlopes []float64 `json:"output_load_slopes,omitempty"`
	RefSlew          float64   `json:"ref_slew,omitempty"`
	InputSlewSlopes  []float64 `json:"input_slew_slopes,omitempty"`
	OutputPortSlews  []float64 `json:"output_port_slews,omitempty"`
	OutputSlewSlopes []float64 `json:"output_slew_slopes,omitempty"`

	Params []ParamSnapshot `json:"params,omitempty"`
	Grid   *GridSnapshot   `json:"grid,omitempty"`

	// Order is the cached topological order at snapshot time. It is part
	// of the numerical contract: Clark-max folds fanin contributions in
	// adjacency order along this order, so restoring a different (even
	// valid) order could move results within propagation tolerance.
	Order []int `json:"order,omitempty"`
}

// Snapshot captures the graph's durable state. It follows the reader side
// of the single-writer contract: do not call it concurrently with edits.
func (g *Graph) Snapshot() *GraphSnapshot {
	s := &GraphSnapshot{
		Globals:          g.Space.Globals,
		Components:       g.Space.Components,
		NumVerts:         g.NumVerts,
		Edges:            make([]EdgeSnapshot, len(g.Edges)),
		Inputs:           g.Inputs,
		Outputs:          g.Outputs,
		InputNames:       g.InputNames,
		OutputNames:      g.OutputNames,
		OutputLoadSlopes: g.OutputLoadSlopes,
		RefSlew:          g.RefSlew,
		InputSlewSlopes:  g.InputSlewSlopes,
		OutputPortSlews:  g.OutputPortSlews,
		OutputSlewSlopes: g.OutputSlewSlopes,
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		s.Edges[i] = EdgeSnapshot{From: e.From, To: e.To, LSens: e.LSens, Grid: e.Grid, Removed: e.Removed}
	}
	delays := g.EdgeDelays().Data()
	s.Delays = make([]byte, 8*len(delays))
	for i, x := range delays {
		binary.LittleEndian.PutUint64(s.Delays[8*i:], math.Float64bits(x))
	}
	for i := range g.Registers {
		r := &g.Registers[i]
		s.Registers = append(s.Registers, RegisterSnapshot{
			Name: r.Name, Q: r.Q, D: r.D, ClkEdge: r.ClkEdge, Grid: r.Grid,
			SetupNominal: r.Setup.Nominal, SetupGlob: r.Setup.Glob, SetupLoc: r.Setup.Loc,
			SetupRand: r.Setup.Rand, SetupLSens: r.SetupLSens,
			HoldNominal: r.Hold.Nominal, HoldGlob: r.Hold.Glob, HoldLoc: r.Hold.Loc,
			HoldRand: r.Hold.Rand, HoldLSens: r.HoldLSens,
		})
	}
	s.ClockRoots = g.ClockRoots
	for _, p := range g.Params {
		s.Params = append(s.Params, ParamSnapshot{
			Name: p.Name, Sigma: p.Sigma,
			GlobalShare: p.GlobalShare, LocalShare: p.LocalShare, RandomShare: p.RandomShare,
		})
	}
	if g.Grids != nil && g.Grids.NX > 0 && g.Grids.Corr != nil {
		s.Grid = &GridSnapshot{
			NX: g.Grids.NX, NY: g.Grids.NY, Pitch: g.Grids.Pitch,
			RhoNeighbor: g.Grids.Corr.RhoNeighbor,
			RhoFloor:    g.Grids.Corr.RhoFloor,
			Range:       g.Grids.Corr.Range,
		}
	}
	g.orderMu.Lock()
	s.Order = g.order
	g.orderMu.Unlock()
	return s
}

// deltaIndexBytes is the little-endian uint32 edge index in front of each
// slot of a delta (see AppendDelta).
const deltaIndexBytes = 4

// deltaBase is the state MarkBase tracks: the structure generation at the
// mark and, for each edge written since, its delay slot at the mark.
type deltaBase struct {
	gen   uint64
	slots map[int]canon.View
}

// MarkBase starts tracking the graph's delay writes against its current
// state: the moment a full snapshot of it (or of a Clone taken with it,
// under the same lock) becomes the base later deltas patch. From then on
// SetEdgeDelay keeps each edge's slot as it was at the mark before the
// edge's first write. Like every edit, it follows the single-writer
// contract.
func (g *Graph) MarkBase() {
	g.base = &deltaBase{gen: g.structGen, slots: make(map[int]canon.View)}
}

// noteWrite saves edge ei's current delay slot before its first write
// since MarkBase.
func (g *Graph) noteWrite(ei int, e *Edge) {
	if g.base == nil {
		return
	}
	if _, seen := g.base.slots[ei]; !seen {
		v := make(canon.View, g.Space.Stride())
		v.LoadForm(e.Delay)
		g.base.slots[ei] = v
	}
}

// AppendDelta appends to dst one record per edge whose delay slot differs
// bit for bit from its slot at the last MarkBase, in ascending edge order:
// the edge index as a little-endian uint32, then Space.Stride()
// little-endian float64s in the canon.View layout. It reports false, and
// appends nothing, when no base is marked or an edit since the mark
// changed more than edge delays; a delta cannot carry that, so the caller
// takes a fresh base. Edges written back to their base value drop out of
// the tracking. It costs O(edges written since the mark) and follows the
// single-writer contract.
func (g *Graph) AppendDelta(dst []byte) ([]byte, bool) {
	b := g.base
	if b == nil || b.gen != g.structGen {
		return dst, false
	}
	cur := make(canon.View, g.Space.Stride())
	idx := make([]int, 0, len(b.slots))
	for ei, was := range b.slots {
		cur.LoadForm(g.Edges[ei].Delay)
		if slices.EqualFunc(cur, was, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			// Back at its base value: a later first write saves the same
			// slot again.
			delete(b.slots, ei)
			continue
		}
		idx = append(idx, ei)
	}
	slices.Sort(idx)
	for _, ei := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ei))
		cur.LoadForm(g.Edges[ei].Delay)
		for _, x := range cur {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return dst, true
}

// PatchDelays returns a copy of s whose Delays carry the slot records of a
// delta (see AppendDelta) in place of the base's. It checks the records'
// framing — whole records, edge indices ascending and inside the snapshot
// — and leaves the values to FromSnapshot, which checks every slot. s is
// not modified.
func (s *GraphSnapshot) PatchDelays(slots []byte) (*GraphSnapshot, error) {
	if s.Globals < 0 || s.Globals > maxSnapshotGlobals || s.Components < 0 || s.Components > maxSnapshotComponents {
		return nil, fmt.Errorf("timing: snapshot space %d+%d out of range", s.Globals, s.Components)
	}
	stride := canon.Space{Globals: s.Globals, Components: s.Components}.Stride()
	if len(s.Delays) != 8*stride*len(s.Edges) {
		return nil, fmt.Errorf("timing: snapshot delays hold %d bytes, want %d (%d edges of %d floats)",
			len(s.Delays), 8*stride*len(s.Edges), len(s.Edges), stride)
	}
	rec := deltaIndexBytes + 8*stride
	if len(slots)%rec != 0 {
		return nil, fmt.Errorf("timing: delta holds %d bytes, not whole %d-byte slots", len(slots), rec)
	}
	out := *s
	if len(slots) == 0 {
		return &out, nil
	}
	out.Delays = bytes.Clone(s.Delays)
	prev := -1
	for off := 0; off < len(slots); off += rec {
		ei := int(binary.LittleEndian.Uint32(slots[off:]))
		if ei <= prev || ei >= len(s.Edges) {
			return nil, fmt.Errorf("timing: delta slot for edge %d out of order or outside %d edges", ei, len(s.Edges))
		}
		prev = ei
		copy(out.Delays[8*stride*ei:], slots[off+deltaIndexBytes:off+rec])
	}
	return &out, nil
}

// FromSnapshot reconstructs a graph from a snapshot, validating every
// index, dimension and the topological order before trusting it. The
// result is numerically identical to the snapshotted graph: edge slots
// (tombstones included), adjacency order and cached topological order are
// restored exactly.
//
// The decoded blob becomes the graph's delay bank, and each Edge.Delay a
// form aliasing its slot, as Build leaves a graph: the bank is immutable,
// and SetEdgeDelay copies it on the first write. The PCA grid model is
// rebuilt last, after every other check: its eigensolve is cubic in the
// grid cells (on the order of 100 s at 32x32), and a snapshot that fails a
// cheap check must not pay it. One of those checks bounds the components
// the grid must keep (variation.MinComponents), which refuses most grids
// too large for the form space without the eigensolve.
func FromSnapshot(s *GraphSnapshot) (*Graph, error) {
	if s.Globals < 0 || s.Globals > maxSnapshotGlobals {
		return nil, fmt.Errorf("timing: snapshot globals %d out of range", s.Globals)
	}
	if s.Components < 0 || s.Components > maxSnapshotComponents {
		return nil, fmt.Errorf("timing: snapshot components %d out of range", s.Components)
	}
	if s.NumVerts < 0 || s.NumVerts > maxSnapshotVerts {
		return nil, fmt.Errorf("timing: snapshot vertex count %d out of range", s.NumVerts)
	}
	if len(s.Edges) > maxSnapshotEdges {
		return nil, fmt.Errorf("timing: snapshot edge count %d out of range", len(s.Edges))
	}
	if len(s.Params) > maxSnapshotGlobals {
		return nil, fmt.Errorf("timing: snapshot parameter count %d out of range", len(s.Params))
	}

	space := canon.Space{Globals: s.Globals, Components: s.Components}
	var params []variation.Parameter
	for _, p := range s.Params {
		params = append(params, variation.Parameter{
			Name: p.Name, Sigma: p.Sigma,
			GlobalShare: p.GlobalShare, LocalShare: p.LocalShare, RandomShare: p.RandomShare,
		})
	}
	g := NewGraph(space, s.NumVerts, params)

	var gridN int // grid count for per-edge grid index validation; 0 = no model
	if s.Grid != nil {
		// Divided, not multiplied: NX*NY can wrap past the cap.
		if s.Grid.NX < 1 || s.Grid.NY < 1 || s.Grid.NX > maxSnapshotGridCells/s.Grid.NY {
			return nil, fmt.Errorf("timing: snapshot grid %dx%d out of range", s.Grid.NX, s.Grid.NY)
		}
		// Grid coordinates are multiples of the pitch; they must stay
		// finite, or the correlation matrix fills with NaN.
		if !(s.Grid.Pitch > 0) || math.IsInf(s.Grid.Pitch*maxSnapshotGridCells, 0) {
			return nil, fmt.Errorf("timing: snapshot grid pitch %g out of range", s.Grid.Pitch)
		}
		gridN = s.Grid.NX * s.Grid.NY
		// The model keeps at most one component per grid, the same count
		// for every parameter.
		if n := len(params); n > 0 && (s.Components%n != 0 || s.Components/n > gridN) {
			return nil, fmt.Errorf("timing: snapshot components %d do not fit %d parameters on %d grids", s.Components, n, gridN)
		}
	}

	// Delays: the blob becomes the graph's delay bank as is. Every slot
	// must pass the rule edits obey; the packed floats, unlike JSON
	// numbers, can carry NaN and ±Inf.
	stride := space.Stride()
	if len(s.Delays) != 8*stride*len(s.Edges) {
		return nil, fmt.Errorf("timing: snapshot delays hold %d bytes, want %d (%d edges of %d floats)",
			len(s.Delays), 8*stride*len(s.Edges), len(s.Edges), stride)
	}
	bank := canon.NewBank(space, len(s.Edges))
	data := bank.Data()
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.Delays[8*i:]))
	}

	// Edges: every slot is restored, tombstones included; only live edges
	// enter the adjacency lists, in index order — exactly the invariant a
	// live graph maintains (insertions append in index order, removals
	// preserve relative order).
	g.Edges = make([]Edge, len(s.Edges))
	for i := range s.Edges {
		e := &s.Edges[i]
		if e.From < 0 || e.From >= s.NumVerts || e.To < 0 || e.To >= s.NumVerts {
			return nil, fmt.Errorf("timing: snapshot edge %d (%d->%d) outside vertex range %d", i, e.From, e.To, s.NumVerts)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("timing: snapshot edge %d is a self-loop on %d", i, e.From)
		}
		if err := checkDelayView(e.From, e.To, bank.View(i)); err != nil {
			return nil, fmt.Errorf("%w (snapshot edge %d)", err, i)
		}
		if len(e.LSens) != 0 && len(e.LSens) != len(params) {
			return nil, fmt.Errorf("timing: snapshot edge %d has %d sensitivities, %d parameters", i, len(e.LSens), len(params))
		}
		if gridN > 0 && (e.Grid < 0 || e.Grid >= gridN) {
			return nil, fmt.Errorf("timing: snapshot edge %d grid %d outside model (%d grids)", i, e.Grid, gridN)
		}
		// packEdges copies LSens into the graph's own slab.
		g.Edges[i] = Edge{From: e.From, To: e.To, LSens: e.LSens, Grid: e.Grid, Removed: e.Removed}
	}
	g.packEdges(bank)

	for _, v := range s.Inputs {
		if v < 0 || v >= s.NumVerts {
			return nil, fmt.Errorf("timing: snapshot input vertex %d out of range", v)
		}
	}
	for _, v := range s.Outputs {
		if v < 0 || v >= s.NumVerts {
			return nil, fmt.Errorf("timing: snapshot output vertex %d out of range", v)
		}
	}
	if err := g.SetIO(s.Inputs, s.Outputs, s.InputNames, s.OutputNames); err != nil {
		return nil, err
	}
	check := func(name string, got []float64, want int) error {
		if got != nil && len(got) != want {
			return fmt.Errorf("timing: snapshot has %d %s for %d ports", len(got), name, want)
		}
		return nil
	}
	if err := check("output load slopes", s.OutputLoadSlopes, len(s.Outputs)); err != nil {
		return nil, err
	}
	if err := check("input slew slopes", s.InputSlewSlopes, len(s.Inputs)); err != nil {
		return nil, err
	}
	if err := check("output port slews", s.OutputPortSlews, len(s.Outputs)); err != nil {
		return nil, err
	}
	if err := check("output slew slopes", s.OutputSlewSlopes, len(s.Outputs)); err != nil {
		return nil, err
	}
	g.OutputLoadSlopes = s.OutputLoadSlopes
	g.RefSlew = s.RefSlew
	g.InputSlewSlopes = s.InputSlewSlopes
	g.OutputPortSlews = s.OutputPortSlews
	g.OutputSlewSlopes = s.OutputSlewSlopes

	if len(s.Registers) > maxSnapshotVerts {
		return nil, fmt.Errorf("timing: snapshot register count %d out of range", len(s.Registers))
	}
	restoreForm := func(i int, kind string, nominal float64, glob, loc []float64, rand float64, lsens []float64) (*canon.Form, []float64, error) {
		if len(glob) != 0 && len(glob) != space.Globals {
			return nil, nil, fmt.Errorf("timing: snapshot register %d has %d %s global coefficients, space has %d", i, len(glob), kind, space.Globals)
		}
		if len(loc) != 0 && len(loc) != space.Components {
			return nil, nil, fmt.Errorf("timing: snapshot register %d has %d %s local coefficients, space has %d", i, len(loc), kind, space.Components)
		}
		if len(lsens) != 0 && len(lsens) != len(params) {
			return nil, nil, fmt.Errorf("timing: snapshot register %d has %d %s sensitivities, %d parameters", i, len(lsens), kind, len(params))
		}
		f := space.NewForm()
		f.Nominal = nominal
		copy(f.Glob, glob)
		copy(f.Loc, loc)
		f.Rand = rand
		var ls []float64
		if len(lsens) > 0 {
			ls = append([]float64(nil), lsens...)
		}
		return f, ls, nil
	}
	for i := range s.Registers {
		r := &s.Registers[i]
		// Q == -1 marks an extracted-model register whose Q vertex was
		// reduced away; D must always resolve.
		if r.Q < -1 || r.Q >= s.NumVerts || r.D < 0 || r.D >= s.NumVerts {
			return nil, fmt.Errorf("timing: snapshot register %d (Q %d, D %d) outside vertex range %d", i, r.Q, r.D, s.NumVerts)
		}
		if r.ClkEdge < -1 || r.ClkEdge >= len(s.Edges) {
			return nil, fmt.Errorf("timing: snapshot register %d clk edge %d outside edge range %d", i, r.ClkEdge, len(s.Edges))
		}
		if gridN > 0 && (r.Grid < -1 || r.Grid >= gridN) {
			return nil, fmt.Errorf("timing: snapshot register %d grid %d outside model (%d grids)", i, r.Grid, gridN)
		}
		setup, setupL, err := restoreForm(i, "setup", r.SetupNominal, r.SetupGlob, r.SetupLoc, r.SetupRand, r.SetupLSens)
		if err != nil {
			return nil, err
		}
		hold, holdL, err := restoreForm(i, "hold", r.HoldNominal, r.HoldGlob, r.HoldLoc, r.HoldRand, r.HoldLSens)
		if err != nil {
			return nil, err
		}
		g.Registers = append(g.Registers, Register{
			Name: r.Name, Q: r.Q, D: r.D, ClkEdge: r.ClkEdge, Grid: r.Grid,
			Setup: setup, Hold: hold, SetupLSens: setupL, HoldLSens: holdL,
		})
	}
	for _, v := range s.ClockRoots {
		if v < 0 || v >= s.NumVerts {
			return nil, fmt.Errorf("timing: snapshot clock root %d out of range", v)
		}
	}
	g.ClockRoots = exactInts(s.ClockRoots)

	if s.Order != nil {
		if err := validateOrder(g, s.Order); err != nil {
			return nil, err
		}
		g.order = append([]int(nil), s.Order...)
	} else if _, err := g.Order(); err != nil {
		return nil, err // snapshot encodes a cyclic graph
	}

	if s.Grid != nil {
		corr, err := variation.NewCorrelationModel(s.Grid.RhoNeighbor, s.Grid.RhoFloor, s.Grid.Range)
		if err != nil {
			return nil, fmt.Errorf("timing: snapshot grid correlation: %w", err)
		}
		// A grid too large for the form space's components is refused
		// before the eigensolve shows it. A grid keeps at most one
		// component per cell, so only a snapshot with fewer needs the bound.
		if n := len(params); n > 0 && s.Components/n < gridN {
			if lo := variation.MinComponents(s.Grid.NX, s.Grid.NY, corr); s.Components/n < lo {
				return nil, fmt.Errorf("timing: snapshot grid %dx%d keeps at least %d components per parameter, form space has %d",
					s.Grid.NX, s.Grid.NY, lo, s.Components/n)
			}
		}
		gm, err := variation.NewGridModel(s.Grid.NX, s.Grid.NY, s.Grid.Pitch, corr)
		if err != nil {
			return nil, fmt.Errorf("timing: snapshot grid rebuild: %w", err)
		}
		if len(params) > 0 && len(params)*gm.Comps != space.Components {
			return nil, fmt.Errorf("timing: rebuilt grid model has %d components, form space expects %d",
				len(params)*gm.Comps, space.Components)
		}
		g.Grids = gm
	}
	return g, nil
}

// validateOrder checks that order is a permutation of the vertices that
// respects every live edge — the conditions under which restoring it is
// safe and exact.
func validateOrder(g *Graph, order []int) error {
	if len(order) != g.NumVerts {
		return fmt.Errorf("timing: snapshot order has %d entries for %d vertices", len(order), g.NumVerts)
	}
	pos := make([]int, g.NumVerts)
	for i := range pos {
		pos[i] = -1
	}
	for k, v := range order {
		if v < 0 || v >= g.NumVerts {
			return fmt.Errorf("timing: snapshot order entry %d out of range", v)
		}
		if pos[v] >= 0 {
			return fmt.Errorf("timing: snapshot order repeats vertex %d", v)
		}
		pos[v] = k
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Removed {
			continue
		}
		if pos[e.From] >= pos[e.To] {
			return fmt.Errorf("timing: snapshot order violates edge %d (%d->%d)", i, e.From, e.To)
		}
	}
	return nil
}
