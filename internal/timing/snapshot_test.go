package timing

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/canon"
)

// snapTestGraph builds a small hand graph, applies a few edits so the
// snapshot carries tombstones and live order, and returns it.
func snapTestGraph(t *testing.T) *Graph {
	t.Helper()
	space := canon.Space{Globals: 2, Components: 3}
	g := NewGraph(space, 6, nil)
	form := func(nom float64, seed int) *canon.Form {
		f := space.NewForm()
		f.Nominal = nom
		for i := range f.Glob {
			f.Glob[i] = 0.1 * float64(seed+i)
		}
		for i := range f.Loc {
			f.Loc[i] = 0.01 * float64(seed+i)
		}
		f.Rand = 0.05 * float64(seed)
		return f
	}
	edges := [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}}
	for i, e := range edges {
		if _, err := g.AddEdge(e[0], e[1], form(10+float64(i), i+1), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetIO([]int{0, 1}, []int{5}, []string{"a", "b"}, []string{"y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Order(); err != nil {
		t.Fatal(err)
	}
	// Some edit history: a tombstone and a live addition.
	if err := g.RemoveEdge(3); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdgeLive(1, 4, form(7, 9), nil, 0); err != nil {
		t.Fatal(err)
	}
	g.takeDirty()
	return g
}

func TestGraphSnapshotRoundTripExact(t *testing.T) {
	g := snapTestGraph(t)
	snap := g.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded GraphSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	rg, err := FromSnapshot(&decoded)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}

	if rg.NumVerts != g.NumVerts || len(rg.Edges) != len(g.Edges) {
		t.Fatalf("shape: %d/%d verts, %d/%d edges", rg.NumVerts, g.NumVerts, len(rg.Edges), len(g.Edges))
	}
	for i := range g.Edges {
		a, b := &g.Edges[i], &rg.Edges[i]
		if a.From != b.From || a.To != b.To || a.Removed != b.Removed || a.Grid != b.Grid {
			t.Fatalf("edge %d structure mismatch: %+v vs %+v", i, a, b)
		}
		// Bit-exact delay forms: JSON round-trips float64 exactly.
		if a.Delay.Nominal != b.Delay.Nominal || a.Delay.Rand != b.Delay.Rand ||
			!reflect.DeepEqual(a.Delay.Glob, b.Delay.Glob) || !reflect.DeepEqual(a.Delay.Loc, b.Delay.Loc) {
			t.Fatalf("edge %d delay not bit-identical", i)
		}
	}
	for v := 0; v < g.NumVerts; v++ {
		if !reflect.DeepEqual(g.In[v], rg.In[v]) || !reflect.DeepEqual(g.Out[v], rg.Out[v]) {
			t.Fatalf("vertex %d adjacency mismatch: in %v/%v out %v/%v",
				v, g.In[v], rg.In[v], g.Out[v], rg.Out[v])
		}
	}
	gOrder, _ := g.Order()
	rOrder, _ := rg.Order()
	if !reflect.DeepEqual(gOrder, rOrder) {
		t.Fatalf("order mismatch: %v vs %v", gOrder, rOrder)
	}
	if !reflect.DeepEqual(g.Inputs, rg.Inputs) || !reflect.DeepEqual(g.Outputs, rg.Outputs) ||
		!reflect.DeepEqual(g.InputNames, rg.InputNames) || !reflect.DeepEqual(g.OutputNames, rg.OutputNames) {
		t.Fatal("IO mismatch")
	}

	// Propagated delay is bit-identical: same forms, same adjacency order,
	// same topological order.
	d1, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := rg.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Nominal != d2.Nominal || d1.Rand != d2.Rand ||
		!reflect.DeepEqual(d1.Glob, d2.Glob) || !reflect.DeepEqual(d1.Loc, d2.Loc) {
		t.Fatalf("propagated delay not bit-identical: %v vs %v", d1.Mean(), d2.Mean())
	}

	// Snapshot of the restored graph encodes to the same bytes.
	data2, err := json.Marshal(rg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("re-encoded snapshot differs")
	}
}

func TestGraphSnapshotRestoredGraphIsEditable(t *testing.T) {
	g := snapTestGraph(t)
	rg, err := FromSnapshot(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := rg.NewIncrementalCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.ScaleEdgeDelay(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Update(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.MaxDelay(); err != nil {
		t.Fatal(err)
	}
}

func TestFromSnapshotRejectsInvalid(t *testing.T) {
	base := func() *GraphSnapshot { return snapTestGraph(t).Snapshot() }
	// setDelay overwrites float k of the packed delay blob; the test
	// graph's stride is 7 (nominal, 2 global, 3 local, rand), so edge 0's
	// rand is float 6.
	setDelay := func(s *GraphSnapshot, k int, x float64) {
		binary.LittleEndian.PutUint64(s.Delays[8*k:], math.Float64bits(x))
	}
	cases := map[string]func(*GraphSnapshot){
		"negative verts":    func(s *GraphSnapshot) { s.NumVerts = -1 },
		"huge verts":        func(s *GraphSnapshot) { s.NumVerts = maxSnapshotVerts + 1 },
		"edge from range":   func(s *GraphSnapshot) { s.Edges[0].From = 99 },
		"edge to negative":  func(s *GraphSnapshot) { s.Edges[0].To = -2 },
		"self loop":         func(s *GraphSnapshot) { s.Edges[0].To = s.Edges[0].From },
		"short delays":      func(s *GraphSnapshot) { s.Delays = s.Delays[:len(s.Delays)-8] },
		"long delays":       func(s *GraphSnapshot) { s.Delays = append(s.Delays, make([]byte, 8)...) },
		"nan delay":         func(s *GraphSnapshot) { setDelay(s, 1, math.NaN()) },
		"inf delay":         func(s *GraphSnapshot) { setDelay(s, 0, math.Inf(1)) },
		"negative rand":     func(s *GraphSnapshot) { setDelay(s, 6, -0.5) },
		"over-limit delay":  func(s *GraphSnapshot) { setDelay(s, 7, 2*MaxEditDelayPS) },
		"input range":       func(s *GraphSnapshot) { s.Inputs[0] = 100 },
		"output range":      func(s *GraphSnapshot) { s.Outputs[0] = -1 },
		"io name count":     func(s *GraphSnapshot) { s.InputNames = s.InputNames[:1] },
		"slope count":       func(s *GraphSnapshot) { s.OutputLoadSlopes = []float64{1, 2, 3} },
		"order short":       func(s *GraphSnapshot) { s.Order = s.Order[:2] },
		"order repeat":      func(s *GraphSnapshot) { s.Order[1] = s.Order[0] },
		"order range":       func(s *GraphSnapshot) { s.Order[0] = 77 },
		"order nontopo":     func(s *GraphSnapshot) { s.Order[0], s.Order[len(s.Order)-1] = s.Order[len(s.Order)-1], s.Order[0] },
		"lsens count":       func(s *GraphSnapshot) { s.Edges[0].LSens = []float64{1, 2} },
		"negative globals":  func(s *GraphSnapshot) { s.Globals = -1 },
		"huge components":   func(s *GraphSnapshot) { s.Components = maxSnapshotComponents + 1 },
		"grid out of range": func(s *GraphSnapshot) { s.Grid = &GridSnapshot{NX: 64, NY: 64, Pitch: 1} },
		"grid cells wrap": func(s *GraphSnapshot) {
			s.Grid = &GridSnapshot{NX: 1 << 62, NY: 4, Pitch: 1, RhoNeighbor: 0.5, RhoFloor: 0.1, Range: 4}
		},
		"grid pitch nan": func(s *GraphSnapshot) {
			s.Grid = &GridSnapshot{NX: 2, NY: 2, Pitch: math.NaN(), RhoNeighbor: 0.5, RhoFloor: 0.1, Range: 4}
		},
	}
	for name, mutate := range cases {
		s := base()
		mutate(s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: FromSnapshot accepted invalid snapshot", name)
		}
	}
	// A cycle without a stored order is caught by the order computation.
	s := base()
	s.Order = nil
	s.Edges = append(s.Edges, EdgeSnapshot{From: 5, To: 0})
	s.Delays = append(s.Delays, make([]byte, 8*canon.Space{Globals: s.Globals, Components: s.Components}.Stride())...)
	if _, err := FromSnapshot(s); err == nil {
		t.Error("cycle: FromSnapshot accepted cyclic snapshot")
	}
}
