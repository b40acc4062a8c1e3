package timing

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/place"
	"repro/internal/variation"
)

// placed returns the library, placement and grid model Build needs for c.
func placed(t testing.TB, c *circuit.Circuit) (*cell.Library, *place.Plan, *variation.GridModel) {
	t.Helper()
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
	return cell.Synthetic90nm(), plan, gm
}

// buildSeq builds the full stack for a clocked circuit.
func buildSeq(t testing.TB, c *circuit.Circuit) *Graph {
	t.Helper()
	lib, plan, gm := placed(t, c)
	g, err := Build(c, lib, plan, gm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func clockedC17(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Clocked(circuit.C17())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBuildSequentialStructure pins the sequential graph shape: one virtual
// clock root without fan-in, driving exactly one clk->Q edge per register,
// no D->Q edge, registered POs mapped to their D sources.
func TestBuildSequentialStructure(t *testing.T) {
	c := clockedC17(t)
	g := buildSeq(t, c)
	if !g.Sequential() {
		t.Fatal("graph not sequential")
	}
	if g.NumVerts != c.NumNodes()+1 {
		t.Fatalf("verts = %d, want %d (+1 clock root)", g.NumVerts, c.NumNodes())
	}
	if len(g.ClockRoots) != 1 {
		t.Fatalf("clock roots = %v", g.ClockRoots)
	}
	if len(g.Registers) != c.NumRegs() {
		t.Fatalf("registers = %d, want %d", len(g.Registers), c.NumRegs())
	}
	clk := g.ClockRoots[0]
	if len(g.In[clk]) != 0 {
		t.Fatalf("clock root has %d fanin edges", len(g.In[clk]))
	}
	if got, want := len(g.Out[clk]), c.NumRegs(); got != want {
		t.Fatalf("clock root drives %d edges, want %d", got, want)
	}
	// The clock root drives exactly the registers' clk->Q edges.
	clkEdges := make(map[int32]bool)
	for _, r := range g.Registers {
		clkEdges[int32(r.ClkEdge)] = true
	}
	for _, ei := range g.Out[clk] {
		if !clkEdges[ei] {
			t.Fatalf("clock root drives edge %d, which is no register's clk->Q edge", ei)
		}
	}
	for _, r := range g.Registers {
		e := &g.Edges[r.ClkEdge]
		if e.From != clk || e.To != r.Q {
			t.Fatalf("register %q clk edge %d->%d, want %d->%d", r.Name, e.From, e.To, clk, r.Q)
		}
		if r.Setup.Nominal <= 0 || r.Hold.Nominal <= 0 {
			t.Fatalf("register %q constraints %g/%g not positive", r.Name, r.Setup.Nominal, r.Hold.Nominal)
		}
		if r.Setup.Std() == 0 || r.Hold.Std() == 0 {
			t.Fatalf("register %q constraints carry no variation", r.Name)
		}
		// No data edge may enter the Q vertex: only the clock launch.
		if len(g.In[r.Q]) != 1 {
			t.Fatalf("register %q Q has %d fanin edges, want 1 (clock only)", r.Name, len(g.In[r.Q]))
		}
	}
	// Registered POs expose the D source vertex under the register name.
	for i, o := range g.Outputs {
		if o == g.ClockRoots[0] {
			t.Fatalf("output %d is the clock root", i)
		}
		found := false
		for _, r := range g.Registers {
			if r.Name == g.OutputNames[i] && r.D == o {
				found = true
			}
		}
		if !found {
			t.Fatalf("output port %q (vertex %d) is not a capture register's D source", g.OutputNames[i], o)
		}
	}
	if len(g.LaunchSources()) != len(g.Inputs)+1 {
		t.Fatalf("launch sources = %v", g.LaunchSources())
	}
	if _, err := g.MaxDelay(); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialSlacksSmoke runs the setup/hold analysis on the clocked c17
// and sanity-checks the slack forms.
func TestSequentialSlacksSmoke(t *testing.T) {
	g := buildSeq(t, clockedC17(t))
	res, err := g.SequentialSlacks(ClockSpec{PeriodPS: 500, SkewPS: 20, JitterPS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regs) != len(g.Registers) {
		t.Fatalf("slacks for %d of %d registers", len(res.Regs), len(g.Registers))
	}
	for _, rs := range res.Regs {
		if rs.Setup == nil || rs.Hold == nil {
			t.Fatalf("register %q missing slack", rs.Name)
		}
		// A 500ps clock leaves the shallow c17 paths comfortable margins.
		if rs.Setup.Mean() <= 0 {
			t.Fatalf("register %q setup slack mean %g <= 0 at 500ps", rs.Name, rs.Setup.Mean())
		}
		// Jitter must show up in the private randomness.
		if rs.Setup.Rand < 10 || rs.Hold.Rand < 10 {
			t.Fatalf("register %q slack rand %g/%g misses the 10ps jitter", rs.Name, rs.Setup.Rand, rs.Hold.Rand)
		}
	}
	if res.WorstSetup == nil || res.WorstHold == nil {
		t.Fatal("missing worst slacks")
	}
	// The worst slack cannot beat any individual register's slack by mean.
	for _, rs := range res.Regs {
		if res.WorstSetup.Mean() > rs.Setup.Mean()+1e-9 {
			t.Fatalf("worst setup %g above register %q setup %g", res.WorstSetup.Mean(), rs.Name, rs.Setup.Mean())
		}
	}

	// Tightening the clock must shrink setup slack and leave hold alone.
	tight, err := g.SequentialSlacks(ClockSpec{PeriodPS: 300, SkewPS: 20, JitterPS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.WorstSetup.Mean() - tight.WorstSetup.Mean(); math.Abs(d-200) > 1e-9 {
		t.Fatalf("setup slack moved by %g for a 200ps period change", d)
	}
	if math.Abs(res.WorstHold.Mean()-tight.WorstHold.Mean()) > 1e-12 {
		t.Fatal("hold slack depends on the period")
	}

	// Combinational graphs reject sequential analysis.
	comb := buildC17(t)
	if _, err := comb.SequentialSlacks(DefaultClock()); err == nil {
		t.Fatal("SequentialSlacks accepted a combinational graph")
	}
}

// TestMinPropagationIdentity pins ArrivalsMin against the negated-max
// identity: min-propagating a graph equals negating every delay, running the
// max pass, and negating the result.
func TestMinPropagationIdentity(t *testing.T) {
	g := buildC17(t)
	p := g.AcquirePass()
	defer p.Release()
	if err := p.ArrivalsMin(g.Inputs...); err != nil {
		t.Fatal(err)
	}
	got := make([]*canon.Form, g.NumVerts)
	for v := 0; v < g.NumVerts; v++ {
		got[v] = p.Form(v)
	}

	neg := NewGraph(g.Space, g.NumVerts, g.Params)
	for _, e := range g.Edges {
		if _, err := neg.AddEdge(e.From, e.To, e.Delay.Scale(-1), nil, e.Grid); err != nil {
			t.Fatal(err)
		}
	}
	np := neg.AcquirePass()
	defer np.Release()
	if err := np.Arrivals(g.Inputs...); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVerts; v++ {
		want := np.Form(v)
		if (got[v] == nil) != (want == nil) {
			t.Fatalf("vertex %d reach mismatch", v)
		}
		if got[v] == nil {
			continue
		}
		w := want.Scale(-1)
		if math.Abs(got[v].Mean()-w.Mean()) > 1e-9 || math.Abs(got[v].Std()-w.Std()) > 1e-9 {
			t.Fatalf("vertex %d: min (%g, %g) vs -max(-d) (%g, %g)",
				v, got[v].Mean(), got[v].Std(), w.Mean(), w.Std())
		}
	}
}

// TestRegToRegSegmentation checks the launch/capture path matrix on the
// clocked c17: every capture register's D must be reachable from at least
// one launch register Q (the input stage feeds the logic).
func TestRegToRegSegmentation(t *testing.T) {
	g := buildSeq(t, clockedC17(t))
	sm, err := g.RegToReg(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.M) != len(g.Registers)+len(g.Inputs) {
		t.Fatalf("launch rows = %d", len(sm.M))
	}
	nCap := len(g.Registers) + len(g.Outputs)
	reached := make([]bool, nCap)
	for _, row := range sm.M {
		if len(row) != nCap {
			t.Fatalf("capture cols = %d, want %d", len(row), nCap)
		}
		for j, f := range row {
			if f != nil {
				reached[j] = true
				if f.Mean() < 0 {
					t.Fatal("negative segment delay")
				}
			}
		}
	}
	isLaunch := make(map[int]bool)
	for _, r := range g.Registers {
		isLaunch[r.Q] = true
	}
	for _, in := range g.Inputs {
		isLaunch[in] = true
	}
	for j, r := range g.Registers {
		// Input-stage registers capture a raw PI — a launch point itself,
		// reported as a (skipped) zero-length self segment. Every other
		// capture point must be covered by some launch.
		if !reached[j] && !isLaunch[r.D] {
			t.Fatalf("capture point %q unreached by every launch", sm.CaptureNames[j])
		}
	}
}

// TestSequentialSnapshotRoundTrip checks that registers and clock roots
// survive the durable snapshot, JSON encoding included, and that slacks
// computed on the restored graph match exactly.
func TestSequentialSnapshotRoundTrip(t *testing.T) {
	g := buildSeq(t, clockedC17(t))
	snap := g.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back GraphSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	g2, err := FromSnapshot(&back)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Registers) != len(g.Registers) || len(g2.ClockRoots) != len(g.ClockRoots) {
		t.Fatalf("sequential metadata lost: %d/%d registers, %d/%d roots",
			len(g2.Registers), len(g.Registers), len(g2.ClockRoots), len(g.ClockRoots))
	}
	clock := ClockSpec{PeriodPS: 400, SkewPS: 15, JitterPS: 5}
	a, err := g.SequentialSlacks(clock)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.SequentialSlacks(clock)
	if err != nil {
		t.Fatal(err)
	}
	if a.WorstSetup.Mean() != b.WorstSetup.Mean() || a.WorstHold.Std() != b.WorstHold.Std() {
		t.Fatalf("restored slacks differ: setup %g vs %g", a.WorstSetup.Mean(), b.WorstSetup.Mean())
	}

	// A hostile register index must be rejected.
	bad := *snap
	bad.Registers = append([]RegisterSnapshot(nil), snap.Registers...)
	bad.Registers[0].Q = snap.NumVerts + 3
	if _, err := FromSnapshot(&bad); err == nil {
		t.Fatal("FromSnapshot accepted out-of-range register Q")
	}

	// Clone carries the metadata too.
	cl := g.Clone()
	if len(cl.Registers) != len(g.Registers) || len(cl.ClockRoots) != len(g.ClockRoots) {
		t.Fatal("Clone dropped sequential metadata")
	}
}
