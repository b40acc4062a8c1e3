package timing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/canon"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/place"
	"repro/internal/variation"
)

// buildC17 builds the full stack for c17.
func buildC17(t *testing.T) *Graph {
	t.Helper()
	c := circuit.C17()
	lib := cell.Synthetic90nm()
	plan, err := place.Topological(c, place.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := variation.DefaultCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	gm, err := variation.NewGridModel(plan.NX, plan.NY, plan.Pitch, corr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, lib, plan, gm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildBench(t *testing.T, name string, seed int64) *Graph {
	t.Helper()
	spec, ok := circuit.SpecByName(name)
	if !ok {
		t.Fatalf("unknown spec %s", name)
	}
	c, err := circuit.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.Synthetic90nm()
	plan, err := place.Topological(c, place.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	corr, _ := variation.DefaultCorrelation()
	gm, err := variation.NewGridModel(plan.NX, plan.NY, plan.Pitch, corr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, lib, plan, gm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildC17Structure(t *testing.T) {
	g := buildC17(t)
	if g.NumVerts != 11 {
		t.Fatalf("verts = %d, want 11 (Vo of c17)", g.NumVerts)
	}
	if len(g.Edges) != 12 {
		t.Fatalf("edges = %d, want 12 (Eo of c17)", len(g.Edges))
	}
	if len(g.Inputs) != 5 || len(g.Outputs) != 2 {
		t.Fatalf("IO: %d/%d", len(g.Inputs), len(g.Outputs))
	}
	for _, e := range g.Edges {
		if e.Delay.Mean() <= 0 {
			t.Fatal("edge with non-positive nominal delay")
		}
		if e.Delay.Std() <= 0 {
			t.Fatal("edge with zero variance — variation missing")
		}
		if len(e.LSens) != len(g.Params) {
			t.Fatal("LSens length mismatch")
		}
	}
}

func TestEdgeFormMatchesStructuralVariance(t *testing.T) {
	// The canonical form's variance must equal the structural decomposition:
	// Var = |Glob|^2 + sum_p LSens_p^2 (unit-variance grid local) + Rand^2.
	g := buildC17(t)
	for i, e := range g.Edges {
		var want float64
		for _, v := range e.Delay.Glob {
			want += v * v
		}
		for _, v := range e.LSens {
			want += v * v
		}
		want += e.Delay.Rand * e.Delay.Rand
		if got := e.Delay.Variance(); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("edge %d: form variance %g vs structural %g", i, got, want)
		}
	}
}

func TestArrivalAllAgainstPathEnumeration(t *testing.T) {
	// On c17 the paths are few; enumerate them and compare the propagated
	// output mean against the max-of-path-sums computed with the same Clark
	// operator but different association order. Means must agree within the
	// Clark approximation tolerance.
	g := buildC17(t)
	arr, err := g.ArrivalAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range g.Outputs {
		if arr[out] == nil {
			t.Fatal("unreachable output")
		}
	}

	// Path enumeration via DFS from each input.
	var paths []*canon.Form
	var walk func(v int, acc *canon.Form)
	walk = func(v int, acc *canon.Form) {
		if v == g.Outputs[0] {
			paths = append(paths, acc.Clone())
			return
		}
		for _, ei := range g.Out[v] {
			e := &g.Edges[ei]
			walk(e.To, canon.Add(acc, e.Delay))
		}
	}
	for _, in := range g.Inputs {
		walk(in, g.Space.Const(0))
	}
	if len(paths) == 0 {
		t.Fatal("no paths found")
	}
	pathMax, err := canon.MaxAll(paths)
	if err != nil {
		t.Fatal(err)
	}
	got := arr[g.Outputs[0]]
	if rel := math.Abs(got.Mean()-pathMax.Mean()) / pathMax.Mean(); rel > 0.02 {
		t.Fatalf("propagated mean %g vs path-enumerated %g (rel %g)", got.Mean(), pathMax.Mean(), rel)
	}
	if rel := math.Abs(got.Std()-pathMax.Std()) / pathMax.Std(); rel > 0.15 {
		t.Fatalf("propagated std %g vs path-enumerated %g (rel %g)", got.Std(), pathMax.Std(), rel)
	}
}

func TestArrivalAllAgainstMonteCarlo(t *testing.T) {
	// Ground truth: sample the shared variables and run scalar longest path.
	g := buildC17(t)
	md, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	const n = 20000
	order, _ := g.Order()
	glob := make([]float64, g.Space.Globals)
	loc := make([]float64, g.Space.Components)
	var sum, sumsq float64
	for s := 0; s < n; s++ {
		for i := range glob {
			glob[i] = rng.NormFloat64()
		}
		for i := range loc {
			loc[i] = rng.NormFloat64()
		}
		arr := make([]float64, g.NumVerts)
		for i := range arr {
			arr[i] = math.Inf(-1)
		}
		for _, in := range g.Inputs {
			arr[in] = 0
		}
		for _, v := range order {
			if math.IsInf(arr[v], -1) {
				continue
			}
			for _, ei := range g.Out[v] {
				e := &g.Edges[ei]
				d := e.Delay.Sample(glob, loc, rng.NormFloat64())
				if cand := arr[v] + d; cand > arr[e.To] {
					arr[e.To] = cand
				}
			}
		}
		best := math.Inf(-1)
		for _, o := range g.Outputs {
			if arr[o] > best {
				best = arr[o]
			}
		}
		sum += best
		sumsq += best * best
	}
	mcMean := sum / n
	mcStd := math.Sqrt(sumsq/n - mcMean*mcMean)
	if rel := math.Abs(md.Mean()-mcMean) / mcMean; rel > 0.02 {
		t.Fatalf("SSTA mean %g vs MC %g (rel %g)", md.Mean(), mcMean, rel)
	}
	if rel := math.Abs(md.Std()-mcStd) / mcStd; rel > 0.10 {
		t.Fatalf("SSTA std %g vs MC %g (rel %g)", md.Std(), mcStd, rel)
	}
}

func TestArrivalFromExclusive(t *testing.T) {
	g := buildC17(t)
	// Input "1" (vertex g.Inputs[0]) reaches output 22 but not 23
	// (c17: 22 = NAND(10,16), 10 = NAND(1,3); 23 = NAND(16,19) where
	// 16 = NAND(2,11), 19 = NAND(11,7) — no path from input 1 to 23).
	arr, err := passArrivals(g, g.Inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if arr[g.Outputs[0]] == nil {
		t.Fatal("input 1 should reach output 22")
	}
	if arr[g.Outputs[1]] != nil {
		t.Fatal("input 1 should NOT reach output 23")
	}
	if arr[g.Inputs[1]] != nil {
		t.Fatal("other inputs must not be sources in exclusive propagation")
	}
}

func TestDelayToOutput(t *testing.T) {
	g := buildC17(t)
	req, err := passRequired(g, g.Outputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if req[g.Outputs[0]].Mean() != 0 {
		t.Fatal("delay from output to itself should be 0")
	}
	// Output 23 cannot reach output 22.
	if req[g.Outputs[1]] != nil {
		t.Fatal("sibling output should not reach output 22")
	}
	// Consistency: arrival(o) from all inputs == max over inputs of
	// (delay from input i to o). Check means within Clark tolerance.
	arrAll, _ := g.ArrivalAll()
	var viaReq []*canon.Form
	for _, in := range g.Inputs {
		if req[in] != nil {
			viaReq = append(viaReq, req[in])
		}
	}
	m, err := canon.MaxAll(viaReq)
	if err != nil {
		t.Fatal(err)
	}
	want := arrAll[g.Outputs[0]]
	if rel := math.Abs(m.Mean()-want.Mean()) / want.Mean(); rel > 0.02 {
		t.Fatalf("backward/forward mismatch: %g vs %g", m.Mean(), want.Mean())
	}
}

func TestAllPairsDelays(t *testing.T) {
	g := buildC17(t)
	ap, err := g.AllPairsDelays(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.M) != 5 {
		t.Fatalf("rows = %d", len(ap.M))
	}
	// M[0][0] (input 1 -> output 22): exists; M[0][1]: nil.
	if ap.M[0][0] == nil || ap.M[0][1] != nil {
		t.Fatal("reachability wrong in all-pairs matrix")
	}
	// Each M_ij mean must be at least the smallest edge delay and at most
	// the all-input arrival at that output.
	arrAll, _ := g.ArrivalAll()
	for i := range ap.M {
		for j, m := range ap.M[i] {
			if m == nil {
				continue
			}
			if m.Mean() <= 0 {
				t.Fatalf("M[%d][%d] mean %g <= 0", i, j, m.Mean())
			}
			if m.Mean() > arrAll[g.Outputs[j]].Mean()+1e-9 {
				t.Fatalf("M[%d][%d] exceeds all-input arrival", i, j)
			}
		}
	}
}

func TestAllPairsMatchesExclusivePasses(t *testing.T) {
	g := buildBench(t, "c432", 1)
	ap, err := g.AllPairsDelays(8)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a few rows against direct exclusive propagation.
	for _, i := range []int{0, len(g.Inputs) / 2, len(g.Inputs) - 1} {
		arr, err := passArrivals(g, g.Inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j, o := range g.Outputs {
			want := arr[o]
			got := ap.M[i][j]
			if (want == nil) != (got == nil) {
				t.Fatalf("row %d col %d: reachability mismatch", i, j)
			}
			if want != nil && math.Abs(want.Mean()-got.Mean()) > 1e-9 {
				t.Fatalf("row %d col %d: %g vs %g", i, j, got.Mean(), want.Mean())
			}
		}
	}
}

func TestReachability(t *testing.T) {
	g := buildC17(t)
	rs, err := g.Reachability()
	if err != nil {
		t.Fatal(err)
	}
	// Input 0 ("1") reaches output 22 (index 0) but not 23 (index 1).
	out22 := g.Outputs[0]
	out23 := g.Outputs[1]
	if !rs.InputReaches(0, out22) {
		t.Fatal("input 0 should reach output 22")
	}
	if rs.InputReaches(0, out23) {
		t.Fatal("input 0 should not reach output 23")
	}
	in0 := g.Inputs[0]
	if !rs.ReachesOutput(in0, 0) {
		t.Fatal("output 22 should be reachable from input 0")
	}
	if rs.ReachesOutput(in0, 1) {
		t.Fatal("output 23 should not be reachable from input 0")
	}
}

func TestGraphConstructionErrors(t *testing.T) {
	s := canon.Space{Globals: 1, Components: 2}
	g := NewGraph(s, 3, nil)
	if _, err := g.AddEdge(0, 5, s.Const(1), nil, 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := g.AddEdge(1, 1, s.Const(1), nil, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	wrong := canon.Space{Globals: 2, Components: 2}.Const(1)
	if _, err := g.AddEdge(0, 1, wrong, nil, 0); err == nil {
		t.Fatal("wrong-space form accepted")
	}
	if err := g.SetIO([]int{0}, []int{1}, []string{"a", "b"}, []string{"z"}); err == nil {
		t.Fatal("name count mismatch accepted")
	}
}

func TestGraphCycleDetection(t *testing.T) {
	s := canon.Space{Globals: 1, Components: 1}
	g := NewGraph(s, 2, nil)
	if _, err := g.AddEdge(0, 1, s.Const(1), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 0, s.Const(1), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Order(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestMaxDelayIncreasesWithDepth(t *testing.T) {
	shallow := buildBench(t, "c499", 1) // depth 11
	deep := buildBench(t, "c6288", 1)   // depth 124
	ms, err := shallow.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	md, err := deep.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if md.Mean() <= ms.Mean() {
		t.Fatalf("depth-124 delay %g should exceed depth-11 delay %g", md.Mean(), ms.Mean())
	}
}
