package timing

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/canon"
	"repro/internal/circuit"
)

// referenceSlacks is the pointer-form slack assembly the view assembly
// replaced, kept as its bit-identity reference: per register, canon.Add
// then canon.Sub on materialized forms, and canon.MinAll over them.
func referenceSlacks(g *Graph, clock ClockSpec) (*SeqResult, error) {
	if !g.Sequential() {
		return nil, errors.New("timing: graph has no registers")
	}
	clock, err := clock.normalize()
	if err != nil {
		return nil, err
	}
	sources := g.LaunchSources()
	late := g.AcquirePass()
	defer late.Release()
	early := g.AcquirePass()
	defer early.Release()
	if err := late.Arrivals(sources...); err != nil {
		return nil, err
	}
	if err := early.ArrivalsMin(sources...); err != nil {
		return nil, err
	}
	res := &SeqResult{Clock: clock}
	var setups, holds []*canon.Form
	for _, r := range g.Registers {
		if !late.Reached(r.D) {
			continue
		}
		arrMax := late.At(r.D).Form(g.Space)
		arrMin := early.At(r.D).Form(g.Space)
		capture := g.Space.NewForm()
		capture.Nominal = clock.PeriodPS - clock.SkewPS
		capture.Rand = clock.JitterPS
		setup := canon.Sub(capture, canon.Add(arrMax, r.Setup))
		edge := g.Space.NewForm()
		edge.Nominal = clock.SkewPS
		edge.Rand = clock.JitterPS
		hold := canon.Sub(arrMin, canon.Add(edge, r.Hold))
		res.Regs = append(res.Regs, RegSlack{Name: r.Name, Setup: setup, Hold: hold})
		setups = append(setups, setup)
		holds = append(holds, hold)
	}
	if res.WorstSetup, err = canon.MinAll(setups); err != nil {
		return nil, err
	}
	if res.WorstHold, err = canon.MinAll(holds); err != nil {
		return nil, err
	}
	return res, nil
}

// sameBits reports whether two forms are equal bit for bit, signs of zero
// included.
func sameBits(a, b *canon.Form) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Nominal, b.Nominal) || !eq(a.Rand, b.Rand) || len(a.Glob) != len(b.Glob) || len(a.Loc) != len(b.Loc) {
		return false
	}
	for i := range a.Glob {
		if !eq(a.Glob[i], b.Glob[i]) {
			return false
		}
	}
	for i := range a.Loc {
		if !eq(a.Loc[i], b.Loc[i]) {
			return false
		}
	}
	return true
}

// seqDiff returns "" when two sequential results agree bit for bit, else a
// description of the first difference.
func seqDiff(got, want *SeqResult) string {
	switch {
	case got.Clock != want.Clock:
		return "clock differs"
	case len(got.Regs) != len(want.Regs):
		return "register count differs"
	case !sameBits(got.WorstSetup, want.WorstSetup):
		return "worst setup differs"
	case !sameBits(got.WorstHold, want.WorstHold):
		return "worst hold differs"
	}
	for i := range got.Regs {
		g, w := got.Regs[i], want.Regs[i]
		if g.Name != w.Name || !sameBits(g.Setup, w.Setup) || !sameBits(g.Hold, w.Hold) {
			return "register " + w.Name + " differs"
		}
	}
	return ""
}

// clockedGraphs caches built clocked benchmark graphs across tests.
var clockedGraphs sync.Map // name -> *Graph

// clockedBench builds (once) the registered variant of a generated
// benchmark: an ISCAS85 name, or smallClockedSpec's name.
func clockedBench(tb testing.TB, name string) *Graph {
	tb.Helper()
	if g, ok := clockedGraphs.Load(name); ok {
		return g.(*Graph)
	}
	spec, ok := circuit.SpecByName(name)
	if name == smallClockedSpec.Name {
		spec, ok = smallClockedSpec, true
	}
	if !ok {
		tb.Fatalf("unknown spec %s", name)
	}
	c, err := circuit.GenerateClocked(spec, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g := buildSeq(tb, c)
	clockedGraphs.Store(name, g)
	return g
}

// smallClockedSpec is a small generated topology for the fuzzer and the
// GenerateClocked case of the bit-identity test.
var smallClockedSpec = circuit.TopoSpec{Name: "seq48", PIs: 8, POs: 6, Gates: 48, Edges: 96, Depth: 9}

// TestSlacksMatchReference: the view assembly is bit-identical to the
// pointer-form reference — worst slacks and every register's slack — on
// every clocked ISCAS85 stand-in and a small generated design, under a
// plain clock and one with skew and jitter, over the graph's own delays
// and rescaled as the walks read them — the reference then runs on a graph
// whose delays were scaled form by form. AnalyzeCtx's delay is
// bit-identical to that graph's MaxDelay.
func TestSlacksMatchReference(t *testing.T) {
	names := []string{smallClockedSpec.Name}
	for _, s := range circuit.ISCAS85Specs {
		names = append(names, s.Name)
	}
	if testing.Short() {
		names = names[:3]
	}
	clocks := []ClockSpec{{}, {PeriodPS: 420, SkewPS: 17.5, JitterPS: 9.25}}
	for _, name := range names {
		g := clockedBench(t, name)
		for _, scale := range []*Scale{nil, testScale(g)} {
			ref := g
			if scale != nil {
				ref = scaledGraph(g, scale)
			}
			md, err := ref.MaxDelay()
			if err != nil {
				t.Fatal(err)
			}
			for _, clock := range clocks {
				want, err := referenceSlacks(ref, clock)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				if scale == nil {
					got, err := g.SequentialSlacks(clock)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if d := seqDiff(got, want); d != "" {
						t.Fatalf("%s clock %+v: SequentialSlacks: %s", name, clock, d)
					}
				}
				delay, seq, err := g.AnalyzeCtx(context.Background(), scale, clock, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := seqDiff(seq, want); d != "" {
					t.Fatalf("%s clock %+v scaled %v: AnalyzeCtx: %s", name, clock, scale != nil, d)
				}
				if !sameBits(delay, md) {
					t.Fatalf("%s scaled %v: AnalyzeCtx delay differs from MaxDelay", name, scale != nil)
				}
			}
		}
	}
}

// TestSlackSignedZero pins the sign of zero in the assembled slack: with
// deterministic delays and constraints whose coefficients are -0, the
// reference's 0 - (a + s) and m - (0 + h) produce +0 and -0 coefficients
// that a simplified -(a + s) or m - h would flip.
func TestSlackSignedZero(t *testing.T) {
	space := canon.Space{Globals: 2, Components: 2}
	negZero := math.Copysign(0, -1)
	constraint := func(nom float64) *canon.Form {
		f := space.Const(nom)
		f.Glob[0], f.Loc[1] = negZero, negZero
		return f
	}
	// 0: input, 1: clock root, 2: Q, 3: D, 4: output.
	g := NewGraph(space, 5, nil)
	for _, e := range [][2]int{{1, 2}, {0, 3}, {2, 3}, {3, 4}} {
		if _, err := g.AddEdge(e[0], e[1], space.Const(10), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := space.Const(3)
	d.Glob[1], d.Loc[0] = negZero, negZero
	if err := g.SetEdgeDelay(1, d); err != nil {
		t.Fatal(err)
	}
	if err := g.SetIO([]int{0}, []int{4}, []string{"a"}, []string{"y"}); err != nil {
		t.Fatal(err)
	}
	g.ClockRoots = []int{1}
	g.Registers = []Register{{Name: "r", Q: 2, D: 3, ClkEdge: 0, Grid: -1, Setup: constraint(5), Hold: constraint(2)}}
	for _, clock := range []ClockSpec{{PeriodPS: 100}, {PeriodPS: 100, SkewPS: 3, JitterPS: 2}} {
		want, err := referenceSlacks(g, clock)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.SequentialSlacks(clock)
		if err != nil {
			t.Fatal(err)
		}
		if d := seqDiff(got, want); d != "" {
			t.Fatalf("clock %+v: %s: got %+v, want %+v", clock, d, *got.Regs[0].Setup, *want.Regs[0].Setup)
		}
	}
}

// TestSequentialSlacksAllocs is the allocation fence of the slack
// assembly: on c7552-clk (315 registers) a SequentialSlacks call allocates
// a fixed handful of objects — the result slab, the passes' pooled arenas —
// not a few forms per register (6320 allocs per call when every slack was
// a heap form).
func TestSequentialSlacksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const fence = 64
	for _, name := range []string{"c432", "c7552"} {
		g := clockedBench(t, name)
		clock := ClockSpec{PeriodPS: 700, SkewPS: 5, JitterPS: 8}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := g.SequentialSlacks(clock); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > fence {
			t.Errorf("%s-clk (%d registers): %.0f allocs per SequentialSlacks, fence %d",
				name, len(g.Registers), allocs, fence)
		}
	}
}

// pollCtx is a context whose Err starts reporting context.Canceled at
// poll number cancelAt (counting from 1; 0 never cancels) and which counts
// every poll.
type pollCtx struct {
	context.Context
	polls    atomic.Int64
	cancelAt int64
}

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.cancelAt > 0 && n >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestAnalyzeCtxCancelled: both walks of a clocked analysis poll ctx, so a
// cancellation landing anywhere in them — the early walk included, which
// used to run to completion unpolled — fails the analysis with an error
// wrapping context.Canceled.
func TestAnalyzeCtxCancelled(t *testing.T) {
	g := clockedBench(t, "c7552")
	clock := DefaultClock()
	late := &pollCtx{Context: context.Background()}
	if _, err := g.MaxDelayCtx(late); err != nil {
		t.Fatal(err)
	}
	full := &pollCtx{Context: context.Background()}
	if _, _, err := g.AnalyzeCtx(full, nil, clock, nil); err != nil {
		t.Fatal(err)
	}
	nLate, nFull := late.polls.Load(), full.polls.Load()
	if nFull < 2*nLate {
		t.Fatalf("clocked analysis polled ctx %d times, want >= %d (both walks)", nFull, 2*nLate)
	}
	for at := int64(1); at <= nFull; at++ {
		delay, seq, err := g.AnalyzeCtx(&pollCtx{Context: context.Background(), cancelAt: at}, nil, clock, nil)
		if !errors.Is(err, context.Canceled) || delay != nil || seq != nil {
			t.Fatalf("cancel at poll %d of %d: delay %v, seq %v, err %v", at, nFull, delay, seq, err)
		}
	}
}

// FuzzSequentialSlacks drives the slack assembly with a random clock and
// random edge-delay edits on a small generated clocked design: the view
// assembly, and the worst-only fold of AnalyzeWorstCtx, must equal the
// pointer-form reference bit for bit and never panic. The input is the clock (period, skew, jitter bytes) followed by
// 3-byte edits: an edge, an operation and an argument.
func FuzzSequentialSlacks(f *testing.F) {
	f.Add([]byte{200, 0, 0})
	f.Add([]byte{120, 30, 12, 5, 0, 40, 17, 1, 0, 60, 2, 9})
	f.Add([]byte{255, 255, 255, 0, 3, 0, 1, 3, 128, 2, 4, 200})
	f.Add([]byte{60, 4, 1, 11, 2, 0, 12, 2, 255, 13, 0, 1})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
		}
		if len(script) > 3+3*64 {
			script = script[:3+3*64] // bound per-input cost
		}
		clock := ClockSpec{
			PeriodPS: 50 + 4*float64(script[0]),
			SkewPS:   float64(script[1]) / 4,
			JitterPS: float64(script[2]) / 8,
		}
		g := clockedBench(t, smallClockedSpec.Name).Clone()
		for s := script[3:]; len(s) >= 3; s = s[3:] {
			ei := int(s[0]) % len(g.Edges)
			arg := float64(s[2])
			switch s[1] % 4 {
			case 0: // scale the whole delay
				_ = g.ScaleEdgeDelay(ei, 0.25+arg/64)
			case 1: // move the nominal, negative included
				_ = g.SetEdgeNominal(ei, arg-64)
			case 2: // deterministic delay with signed-zero coefficients
				d := g.Space.Const(arg / 4)
				for i := range d.Glob {
					d.Glob[i] = math.Copysign(0, -1)
				}
				_ = g.SetEdgeDelay(ei, d)
			case 3: // drop the private part
				d := g.Edges[ei].Delay.Clone()
				d.Rand = 0
				_ = g.SetEdgeDelay(ei, d)
			}
		}
		want, err := referenceSlacks(g, clock)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.SequentialSlacks(clock)
		if err != nil {
			t.Fatal(err)
		}
		if d := seqDiff(got, want); d != "" {
			t.Fatalf("clock %+v: %s", clock, d)
		}
		_, worst, err := g.AnalyzeWorstCtx(context.Background(), nil, clock)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(worst.WorstSetup, want.WorstSetup) || !sameBits(worst.WorstHold, want.WorstHold) {
			t.Fatalf("clock %+v: worst-only slacks differ from the reference", clock)
		}
	})
}
