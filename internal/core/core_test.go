package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/place"
	"repro/internal/timing"
	"repro/internal/variation"
)

func buildGraph(t *testing.T, name string, seed int64) *timing.Graph {
	t.Helper()
	var c *circuit.Circuit
	if name == "c17" {
		c = circuit.C17()
	} else {
		spec, ok := circuit.SpecByName(name)
		if !ok {
			t.Fatalf("unknown spec %q", name)
		}
		var err error
		c, err = circuit.Generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
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
	g, err := timing.Build(c, lib, plan, gm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgeCriticalitiesRange(t *testing.T) {
	g := buildGraph(t, "c17", 1)
	crit, err := EdgeCriticalities(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(crit.Cm) != len(g.Edges) {
		t.Fatalf("cm count %d != edges %d", len(crit.Cm), len(g.Edges))
	}
	for e, c := range crit.Cm {
		if c < 0 || c > 1 {
			t.Fatalf("edge %d criticality %g outside [0,1]", e, c)
		}
	}
	// Every input/output pair has a dominant path, so some edges must be
	// highly critical.
	var high int
	for _, c := range crit.Cm {
		if c > 0.5 {
			high++
		}
	}
	if high == 0 {
		t.Fatal("no edge with criticality > 0.5 — dominant paths missing")
	}
}

func TestProtectedEdgesConnectPairs(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	crit, err := EdgeCriticalities(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The protected subgraph alone must connect every originally
	// connected pair.
	ap, err := g.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	// Build reachability over protected edges only.
	nowhere := make([]bool, len(g.Edges))
	for e := range nowhere {
		nowhere[e] = !crit.Protected[e]
	}
	mg := newModelGraph(g, nowhere)
	sub, err := rebuildGraph(g, mg)
	if err != nil {
		t.Fatal(err)
	}
	apSub, err := sub.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ap.M {
		for j := range ap.M[i] {
			if ap.M[i][j] != nil && apSub.M[i][j] == nil {
				t.Fatalf("pair (%d,%d) disconnected in protected subgraph", i, j)
			}
		}
	}
}

func TestCriticalityAgainstMonteCarlo(t *testing.T) {
	// Sample the c17 graph, trace the argmax path per (input, output) pair,
	// and compare empirical edge criticality with the analytic one.
	g := buildGraph(t, "c17", 1)
	crit, err := EdgeCriticalities(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.Order()

	const n = 4000
	counts := make([]float64, len(g.Edges)) // max over pairs of empirical cij
	pairCount := make([][]map[int]int, len(g.Inputs))
	for i := range pairCount {
		pairCount[i] = make([]map[int]int, len(g.Outputs))
		for j := range pairCount[i] {
			pairCount[i][j] = make(map[int]int)
		}
	}
	pairTotal := make([][]int, len(g.Inputs))
	for i := range pairTotal {
		pairTotal[i] = make([]int, len(g.Outputs))
	}

	rng := newTestRand(42)
	glob := make([]float64, g.Space.Globals)
	loc := make([]float64, g.Space.Components)
	delays := make([]float64, len(g.Edges))
	for s := 0; s < n; s++ {
		for i := range glob {
			glob[i] = rng.NormFloat64()
		}
		for i := range loc {
			loc[i] = rng.NormFloat64()
		}
		for e := range g.Edges {
			delays[e] = g.Edges[e].Delay.Sample(glob, loc, rng.NormFloat64())
		}
		for i, in := range g.Inputs {
			// Scalar longest path from input i with argmax predecessor.
			arr := make([]float64, g.NumVerts)
			pred := make([]int, g.NumVerts)
			for v := range arr {
				arr[v] = math.Inf(-1)
				pred[v] = -1
			}
			arr[in] = 0
			for _, v := range order {
				if math.IsInf(arr[v], -1) {
					continue
				}
				for _, ei := range g.Out[v] {
					e := &g.Edges[ei]
					if cand := arr[v] + delays[ei]; cand > arr[e.To] {
						arr[e.To] = cand
						pred[e.To] = int(ei)
					}
				}
			}
			for j, out := range g.Outputs {
				if math.IsInf(arr[out], -1) {
					continue
				}
				pairTotal[i][j]++
				v := out
				for v != in {
					ei := pred[v]
					if ei < 0 {
						break
					}
					pairCount[i][j][ei]++
					v = g.Edges[ei].From
				}
			}
		}
	}
	for e := range g.Edges {
		for i := range g.Inputs {
			for j := range g.Outputs {
				if pairTotal[i][j] == 0 {
					continue
				}
				f := float64(pairCount[i][j][e]) / float64(pairTotal[i][j])
				if f > counts[e] {
					counts[e] = f
				}
			}
		}
	}
	for e := range g.Edges {
		if d := math.Abs(counts[e] - crit.Cm[e]); d > 0.12 {
			t.Errorf("edge %d: MC criticality %.3f vs analytic %.3f (|d|=%.3f)",
				e, counts[e], crit.Cm[e], d)
		}
	}
}

func TestExtractC17NoRemoval(t *testing.T) {
	// With delta < 0 no edges are removed; merges alone must preserve the
	// delay matrix (serial merge is exact, parallel merge is the same Clark
	// max the propagation would apply).
	g := buildGraph(t, "c17", 1)
	apOrig, err := g.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract(g, Options{Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.EdgesModel > m.Stats.EdgesOrig {
		t.Fatalf("model has more edges than original: %d > %d", m.Stats.EdgesModel, m.Stats.EdgesOrig)
	}
	apModel, err := m.Graph.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	compareDelayMatrices(t, apOrig, apModel, 0.01, 0.05)
}

func TestExtractC432DefaultDelta(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	apOrig, err := g.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.EdgesModel >= m.Stats.EdgesOrig {
		t.Fatalf("no compression: %d >= %d", m.Stats.EdgesModel, m.Stats.EdgesOrig)
	}
	if m.Stats.PE() > 0.9 || m.Stats.PV() > 0.9 {
		t.Fatalf("weak compression: pe=%.2f pv=%.2f", m.Stats.PE(), m.Stats.PV())
	}
	apModel, err := m.Graph.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	// Reachability must be preserved (path protection).
	for i := range apOrig.M {
		for j := range apOrig.M[i] {
			if (apOrig.M[i][j] != nil) != (apModel.M[i][j] != nil) {
				t.Fatalf("pair (%d,%d): reachability changed", i, j)
			}
		}
	}
	compareDelayMatrices(t, apOrig, apModel, 0.02, 0.10)
}

// compareDelayMatrices checks the relative mean error and std error of all
// IO delays.
func compareDelayMatrices(t *testing.T, a, b *timing.AllPairs, meanTol, stdTol float64) {
	t.Helper()
	var worstMean, worstStd float64
	for i := range a.M {
		for j := range a.M[i] {
			fa, fb := a.M[i][j], b.M[i][j]
			if fa == nil || fb == nil {
				continue
			}
			if m := math.Abs(fb.Mean()-fa.Mean()) / math.Max(fa.Mean(), 1e-9); m > worstMean {
				worstMean = m
			}
			if s := math.Abs(fb.Std()-fa.Std()) / math.Max(fa.Std(), 1e-9); s > worstStd {
				worstStd = s
			}
		}
	}
	if worstMean > meanTol {
		t.Errorf("worst relative mean error %.4f > %.4f", worstMean, meanTol)
	}
	if worstStd > stdTol {
		t.Errorf("worst relative std error %.4f > %.4f", worstStd, stdTol)
	}
}

func TestExtractPreservesPortNames(t *testing.T) {
	g := buildGraph(t, "c17", 1)
	m, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Graph.InputNames) != len(g.InputNames) || len(m.Graph.OutputNames) != len(g.OutputNames) {
		t.Fatal("port name counts changed")
	}
	for i := range g.InputNames {
		if m.Graph.InputNames[i] != g.InputNames[i] {
			t.Fatalf("input name %d changed: %q vs %q", i, m.Graph.InputNames[i], g.InputNames[i])
		}
	}
}

func TestExtractHigherDeltaSmallerModel(t *testing.T) {
	g := buildGraph(t, "c880", 1)
	small, err := Extract(g, Options{Delta: 0.30})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Extract(g, Options{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.EdgesModel > big.Stats.EdgesModel {
		t.Fatalf("delta=0.30 model (%d edges) larger than delta=0.01 (%d edges)",
			small.Stats.EdgesModel, big.Stats.EdgesModel)
	}
}

func TestCriticalityHistogramBimodal(t *testing.T) {
	g := buildGraph(t, "c1908", 1)
	crit, err := EdgeCriticalities(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := CriticalityHistogram(crit.Cm, 20)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != len(g.Edges) {
		t.Fatalf("histogram total %d != edges %d", h.Total(), len(g.Edges))
	}
	// Paper Fig. 6: mass concentrates near 0 and 1.
	lo := h.Fraction(0) + h.Fraction(1)
	hi := h.Fraction(18) + h.Fraction(19)
	mid := 1 - lo - hi
	if lo+hi < mid {
		t.Errorf("criticalities not bimodal: ends=%.2f middle=%.2f", lo+hi, mid)
	}
}

func TestExtractOptionsValidation(t *testing.T) {
	if _, err := Extract(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	s := canon.Space{Globals: 1, Components: 1}
	empty := timing.NewGraph(s, 2, nil)
	if _, err := Extract(empty, Options{}); err == nil {
		t.Fatal("portless graph accepted")
	}
}

func TestModelJSONRoundtrip(t *testing.T) {
	g := buildGraph(t, "c17", 1)
	m, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.NumVerts != m.Graph.NumVerts || len(back.Graph.Edges) != len(m.Graph.Edges) {
		t.Fatal("shape changed through JSON roundtrip")
	}
	apA, _ := m.Graph.AllPairsDelays(0)
	apB, err := back.Graph.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range apA.M {
		for j := range apA.M[i] {
			fa, fb := apA.M[i][j], apB.M[i][j]
			if (fa == nil) != (fb == nil) {
				t.Fatal("reachability changed through JSON")
			}
			if fa != nil && math.Abs(fa.Mean()-fb.Mean()) > 1e-9 {
				t.Fatal("delays changed through JSON")
			}
		}
	}
	if back.Stats.EdgesOrig != m.Stats.EdgesOrig {
		t.Fatal("stats lost")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"format_version": 99}`))); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestExtractDeterministic: extracting the same circuit twice gives the
// same model, bit for bit. Parallel-edge bundles used to merge in map
// order, so the model's edge order, and every Clark max downstream of it,
// changed from run to run (a quad-c1908 sweep moved by ~1e-3 ps between
// processes).
func TestExtractDeterministic(t *testing.T) {
	var want []byte
	for run := 0; run < 4; run++ {
		m, err := Extract(buildGraph(t, "c1908", 3), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("extraction %d differs from the first", run)
		}
	}
}
