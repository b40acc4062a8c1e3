package timing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/canon"
)

// fullAnalysis is AnalyzeCtx run in full arenas, plus the early output
// fold of MinDelay: the reference every frontier arena must equal bit for
// bit. outs holds each output's late arrival (nil when unreached).
type fullAnalysis struct {
	outs            []*canon.Form
	delay, minDelay *canon.Form
	seq             *SeqResult
	err, minErr     error
}

func analyzeFull(g *Graph, scale *Scale, clock ClockSpec) fullAnalysis {
	var fa fullAnalysis
	sources := g.LaunchSources()
	late := g.AcquirePass()
	defer late.Release()
	if fa.err = late.arrivalsScaled(scale, canon.MaxViews, sources); fa.err != nil {
		return fa
	}
	fa.outs = make([]*canon.Form, len(g.Outputs))
	if fa.delay, fa.err = late.outputMax(fa.outs); fa.err != nil {
		return fa
	}
	early := g.AcquirePass()
	defer early.Release()
	if fa.err = early.arrivalsScaled(scale, canon.MinViews, sources); fa.err != nil {
		return fa
	}
	acc, first := early.Scratch(), true
	for _, o := range g.Outputs {
		switch {
		case !early.Reached(o):
		case first:
			canon.CopyView(acc, early.At(o))
			first = false
		default:
			canon.MinViews(acc, acc, early.At(o))
		}
	}
	if first {
		fa.minErr = fmt.Errorf("no output reached")
	} else {
		fa.minDelay = acc.Form(g.Space)
	}
	if g.Sequential() {
		if clock, fa.err = clock.normalize(); fa.err == nil {
			fa.seq, fa.err = g.slacks(late, early, clock, true)
		}
	}
	return fa
}

// sameOrNil is sameBits for possibly nil forms.
func sameOrNil(a, b *canon.Form) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return sameBits(a, b)
}

// checkFrontier requires every frontier-arena analysis of g — AnalyzeCtx
// with its per-output forms, AnalyzeWorstCtx, MaxDelay, MinDelay — to
// equal the full-arena reference bit for bit at every output and D pin.
// Scale nil checks the unscaled walks; MaxDelay and MinDelay are unscaled
// only.
func checkFrontier(tb testing.TB, label string, g *Graph, scale *Scale, clock ClockSpec) {
	tb.Helper()
	want := analyzeFull(g, scale, clock)
	outs := make([]*canon.Form, len(g.Outputs))
	delay, seq, err := g.AnalyzeCtx(context.Background(), scale, clock, outs)
	if (err != nil) != (want.err != nil) {
		tb.Fatalf("%s: frontier error %v, full error %v", label, err, want.err)
	}
	if err != nil {
		return
	}
	if !sameBits(delay, want.delay) {
		tb.Fatalf("%s: frontier delay %v, full %v", label, delay, want.delay)
	}
	for k := range outs {
		if !sameOrNil(outs[k], want.outs[k]) {
			tb.Fatalf("%s: output %d (vertex %d) differs from the full arena", label, k, g.Outputs[k])
		}
	}
	if (seq == nil) != (want.seq == nil) {
		tb.Fatalf("%s: frontier seq %v, full %v", label, seq != nil, want.seq != nil)
	}
	_, worst, err := g.AnalyzeWorstCtx(context.Background(), scale, clock)
	if err != nil {
		tb.Fatalf("%s: AnalyzeWorstCtx: %v", label, err)
	}
	if seq != nil {
		if d := seqDiff(seq, want.seq); d != "" {
			tb.Fatalf("%s: frontier slacks: %s", label, d)
		}
		if worst.Regs != nil || !sameBits(worst.WorstSetup, want.seq.WorstSetup) || !sameBits(worst.WorstHold, want.seq.WorstHold) {
			tb.Fatalf("%s: worst-only slacks differ from the full arena", label)
		}
	} else if worst != nil {
		tb.Fatalf("%s: AnalyzeWorstCtx returned slacks for a combinational graph", label)
	}
	if scale != nil {
		return
	}
	if got, err := g.MaxDelay(); err != nil || !sameBits(got, want.delay) {
		tb.Fatalf("%s: MaxDelay %v (err %v) differs from the full arena", label, got, err)
	}
	got, err := g.MinDelay()
	if (err != nil) != (want.minErr != nil) || err == nil && !sameBits(got, want.minDelay) {
		tb.Fatalf("%s: MinDelay %v (err %v) differs from the full arena %v (err %v)", label, got, err, want.minDelay, want.minErr)
	}
}

// randomScale returns a scenario-like rescale of g's delays.
func randomScale(g *Graph, seed int64) *Scale {
	rng := rand.New(rand.NewSource(seed))
	s := &Scale{Edge: make([]float64, len(g.Edges)), Glob: 1.1, Loc: 0.9, Rand: 1.3}
	for i := range s.Edge {
		s.Edge[i] = 0.8 + 0.4*rng.Float64()
	}
	return s
}

// TestFrontierMatchesFullArena: every analysis that runs in a frontier
// arena answers bit for bit what a full arena answers, max and min, scaled
// and unscaled, on flat and clocked ISCAS85 stand-ins; the clocked ones
// under a clock with skew and jitter too.
func TestFrontierMatchesFullArena(t *testing.T) {
	flat := []string{"c432", "c880", "c1908", "c3540", "c7552"}
	clocked := []string{smallClockedSpec.Name, "c432", "c1908", "c7552"}
	if testing.Short() {
		flat, clocked = flat[:3], clocked[:3]
	}
	clocks := []ClockSpec{{}, {PeriodPS: 420, SkewPS: 9, JitterPS: 6}}
	for _, name := range flat {
		g := buildBench(t, name, 1)
		checkFrontier(t, name, g, nil, ClockSpec{})
		checkFrontier(t, name+" scaled", g, randomScale(g, 1), ClockSpec{})
	}
	for _, name := range clocked {
		g := clockedBench(t, name)
		for _, clock := range clocks {
			label := fmt.Sprintf("%s-clk %+v", name, clock)
			checkFrontier(t, label, g, nil, clock)
			checkFrontier(t, label+" scaled", g, randomScale(g, 2), clock)
		}
	}
}

// TestFrontierAllPairsAndRegToReg: the per-launch passes of AllPairsDelays
// and RegToReg run in frontier arenas and equal full-arena passes bit for
// bit at every output and D pin.
func TestFrontierAllPairsAndRegToReg(t *testing.T) {
	g := buildBench(t, "c880", 1)
	ap, err := g.AllPairsDelays(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range g.Inputs {
		want, err := passArrivals(g, in)
		if err != nil {
			t.Fatal(err)
		}
		for j, o := range g.Outputs {
			if !sameOrNil(ap.M[i][j], want[o]) {
				t.Fatalf("AllPairs[%d][%d] differs from the full arena", i, j)
			}
		}
	}

	cg := clockedBench(t, "c432")
	sm, err := cg.RegToReg(2)
	if err != nil {
		t.Fatal(err)
	}
	captures := make([]int, 0, len(cg.Registers)+len(cg.Outputs))
	for _, r := range cg.Registers {
		captures = append(captures, r.D)
	}
	captures = append(captures, cg.Outputs...)
	launches := make([]int, 0, len(sm.M))
	for _, r := range cg.Registers {
		if r.Q >= 0 {
			launches = append(launches, r.Q)
		}
	}
	launches = append(launches, cg.Inputs...)
	for i, l := range launches {
		want, err := passArrivals(cg, l)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range captures {
			if c != l && !sameOrNil(sm.M[i][j], want[c]) {
				t.Fatalf("RegToReg[%d][%d] differs from the full arena", i, j)
			}
		}
	}
}

// TestFrontierFollowsRetargetIO: RetargetIO keeps the cached Levels but
// moves the outputs, so a plan cached on Levels alone would hand the new
// outputs' slots on mid-walk. After retargeting c880's outputs onto a band
// of mid-level vertices, every frontier analysis still equals the full
// arena bit for bit.
func TestFrontierFollowsRetargetIO(t *testing.T) {
	g := buildBench(t, "c880", 1)
	before, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	mid := int32(lv.MaxLevel / 2)
	var outs []int
	var names []string
	for v, l := range lv.Level {
		if l == mid && len(g.Out[v]) > 0 {
			outs = append(outs, v)
			names = append(names, fmt.Sprintf("m%d", v))
		}
	}
	if len(outs) < 4 {
		t.Fatalf("fixture: only %d vertices at level %d", len(outs), mid)
	}
	if err := g.RetargetIO(g.Inputs, outs, g.InputNames, names); err != nil {
		t.Fatal(err)
	}
	if lv2, _ := g.Levels(); lv2 != lv {
		t.Fatal("fixture: RetargetIO rebuilt the level structure")
	}
	checkFrontier(t, "c880 retargeted", g, nil, ClockSpec{})
	checkFrontier(t, "c880 retargeted scaled", g, randomScale(g, 3), ClockSpec{})
	after, err := g.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if after.Mean() >= before.Mean() {
		t.Fatalf("fixture: mid-level outputs arrive at %.2f ps, not before the old outputs' %.2f ps", after.Mean(), before.Mean())
	}
}

// TestFrontierArenaGuard: a frontier arena serves the vertices its plan
// keeps and panics for any other instead of returning a reused slot; it
// refuses backward passes.
func TestFrontierArenaGuard(t *testing.T) {
	g := buildBench(t, "c432", 1)
	p, err := g.acquireFrontier()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if err := p.Arrivals(g.Inputs...); err != nil {
		t.Fatal(err)
	}
	full, err := passArrivals(g, g.Inputs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range g.Outputs {
		if !sameOrNil(p.Form(o), full[o]) {
			t.Fatalf("output %d differs from the full arena", o)
		}
	}
	inner := -1
	for v := 0; v < g.NumVerts && inner < 0; v++ {
		if p.plan.read[v] < 0 && p.Reached(v) {
			inner = v
		}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s of unkept vertex %d did not panic", what, inner)
			}
		}()
		f()
	}
	mustPanic("At", func() { p.At(inner) })
	mustPanic("Form", func() { p.Form(inner) })
	mustPanic("Forms", func() { p.Forms() })
	if err := p.Required(g.Outputs...); err == nil {
		t.Fatal("a frontier arena ran a backward pass")
	}
}

// TestFrontierArenaSize is the arena fence of the analyses sstad serves:
// one AnalyzeCtx takes a 512 KiB slab on c7552 (4 MiB in a full arena)
// and two 1 MiB slabs on c7552-clk (two 8 MiB ones).
func TestFrontierArenaSize(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *Graph
		fence int64
	}{
		{"c7552", buildBench(t, "c7552", 1), 512 << 10},
		{"c7552-clk", clockedBench(t, "c7552"), 2 << 20},
	} {
		before := ArenaBytes()
		if _, _, err := tc.g.AnalyzeCtx(context.Background(), nil, DefaultClock(), nil); err != nil {
			t.Fatal(err)
		}
		fp, err := tc.g.frontier()
		if err != nil {
			t.Fatal(err)
		}
		took := ArenaBytes() - before
		t.Logf("%s: %d of %d vertices live at most, arenas %d KiB", tc.name, fp.slots, tc.g.NumVerts, took>>10)
		if took > tc.fence {
			t.Errorf("%s: one analysis took %d KiB of arena, fence %d KiB", tc.name, took>>10, tc.fence>>10)
		}
	}
}

// TestFrontierDirtyPooledArena: frontier arenas come from the slab pool
// unzeroed, and a slot is rewritten by each vertex that takes it over.
// Poison a batch of pooled slabs of the frontier size, then analyze: the
// answers must equal the full arena's bit for bit.
func TestFrontierDirtyPooledArena(t *testing.T) {
	g := clockedBench(t, "c432")
	poisoned := make([]*Pass, 16)
	for i := range poisoned {
		p, err := g.acquireFrontier()
		if err != nil {
			t.Fatal(err)
		}
		data := p.bank.Data()
		for k := range data[:cap(data)] {
			data[:cap(data)][k] = math.NaN()
		}
		poisoned[i] = p
	}
	for _, p := range poisoned {
		p.Release()
	}
	checkFrontier(t, "c432-clk over poisoned arenas", g, nil, DefaultClock())
	checkFrontier(t, "c432-clk over poisoned arenas, scaled", g, randomScale(g, 4), DefaultClock())
}
