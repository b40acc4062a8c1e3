package ssta

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mc"
	"repro/internal/scenario"
)

// clockedSmokeBench is a tiny hand-written sequential netlist: one
// register between two combinational stages, exercising DFF parsing,
// launch (clk->Q) and capture (D-pin) paths through the public facade.
const clockedSmokeBench = `# sequential smoke
INPUT(a)
INPUT(b)
OUTPUT(y)
q1 = DFF(d1)
d1 = AND(a, b)
y = NAND(q1, b)
`

// TestClockedBenchThroughFacade is the tier-1 sequential smoke: parse a
// clocked .bench, build the graph, and report per-register setup AND hold
// slack using only ssta-package names.
func TestClockedBenchThroughFacade(t *testing.T) {
	flow := DefaultFlow()
	c, err := ParseBench("smoke.bench", strings.NewReader(clockedSmokeBench))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := flow.Graph(c)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Sequential() {
		t.Fatal("parsed clocked bench produced a combinational graph")
	}
	seq, err := g.SequentialSlacks(ClockSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seq.Clock.PeriodPS, DefaultClock().PeriodPS; got != want {
		t.Fatalf("zero clock spec normalized to %g ps, want default %g", got, want)
	}
	if len(seq.Regs) != 1 {
		t.Fatalf("got %d registers, want 1", len(seq.Regs))
	}
	for _, r := range seq.Regs {
		if r.Setup == nil || r.Hold == nil {
			t.Fatalf("register %q missing slack forms: setup=%v hold=%v", r.Name, r.Setup, r.Hold)
		}
		if r.Setup.Std() <= 0 {
			t.Fatalf("register %q setup slack has no spread", r.Name)
		}
	}
	if seq.WorstSetup == nil || seq.WorstHold == nil {
		t.Fatal("missing worst-case slack forms")
	}
	// With one register the worst setup is that register's setup.
	if seq.WorstSetup.Mean() != seq.Regs[0].Setup.Mean() {
		t.Fatalf("worst setup mean %g != sole register's %g",
			seq.WorstSetup.Mean(), seq.Regs[0].Setup.Mean())
	}
}

// TestClockedBatchAndSweep: AnalyzeBatch fills BatchResult.Seq for clocked
// circuits under the default clock, and a clock-only scenario sweep over the
// same graph shares prep while reshaping the slack.
func TestClockedBatchAndSweep(t *testing.T) {
	flow := DefaultFlow()
	c, err := Clocked(C17())
	if err != nil {
		t.Fatal(err)
	}
	results := flow.AnalyzeBatch([]BatchItem{
		{Name: "clk", Circuit: c},
		{Name: "comb", Circuit: C17()},
	}, BatchOptions{Workers: 1})
	clk, comb := results[0], results[1]
	if clk.Err != nil || comb.Err != nil {
		t.Fatalf("batch errors: clk=%v comb=%v", clk.Err, comb.Err)
	}
	if clk.Seq == nil {
		t.Fatal("clocked batch item has no sequential result")
	}
	if comb.Seq != nil {
		t.Fatal("combinational batch item grew a sequential result")
	}

	rep, err := SweepAnalyzeGraph(context.Background(), clk.Graph, []Scenario{
		{Name: "base"},
		{Name: "slow", ClockPeriodPS: 2 * DefaultClock().PeriodPS},
	}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, slow := rep.Results[0], rep.Results[1]
	if base.Err != nil || slow.Err != nil {
		t.Fatalf("sweep errors: %v / %v", base.Err, slow.Err)
	}
	if base.SetupSlack == nil || slow.SetupSlack == nil || base.HoldSlack == nil {
		t.Fatal("sweep results missing slack stats")
	}
	// Doubling the period adds exactly one period of setup slack (the
	// constraint is linear in T) and leaves hold untouched.
	gain := slow.SetupSlack.Mean - base.SetupSlack.Mean
	if diff := gain - DefaultClock().PeriodPS; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("period doubling gained %g ps of setup slack, want %g", gain, DefaultClock().PeriodPS)
	}
	if slow.HoldSlack.Mean != base.HoldSlack.Mean {
		t.Fatalf("hold slack moved with the period: %g vs %g", slow.HoldSlack.Mean, base.HoldSlack.Mean)
	}
	if !slow.Shared {
		t.Fatal("clock-only scenario did not share base prep")
	}
}

// TestGeneratedRegisteredDesignOracle is the tier-2 check: a generated
// registered benchmark's analytic setup/hold slack agrees with Monte Carlo
// through the facade's ClockedBenchGraph path.
func TestGeneratedRegisteredDesignOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping sequential MC oracle in -short mode")
	}
	flow := DefaultFlow()
	g, _, err := flow.ClockedBenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateSequential(g, ClockSpec{PeriodPS: 700, SkewPS: 10, JitterPS: 8},
		MCConfig{Samples: 12000, Seed: 11}, mc.Tolerance{Mean: 0.12, Sigma: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Errorf("sequential validation failed:\n  setup %v\n  hold  %v", rep.Setup, rep.Hold)
	}
}

// lastPollCtx reports context.Canceled from its cancelAt-th Err poll on
// (0: never) and counts every poll.
type lastPollCtx struct {
	context.Context
	polls    atomic.Int64
	cancelAt int64
}

func (c *lastPollCtx) Err() error {
	if n := c.polls.Add(1); c.cancelAt > 0 && n >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestClockedAnalyzeCancelled: a clocked analysis observes cancellation
// through its slack walks. Through AnalyzeBatchCtx, a ctx that fires on the
// last poll of a full c7552-clk item — inside the early walk that feeds
// hold slack — fails the item with an error wrapping context.Canceled and
// no partial result; through SweepAnalyzeGraph, a cancelled ctx fails
// every scenario likewise.
func TestClockedAnalyzeCancelled(t *testing.T) {
	flow := DefaultFlow()
	g, _, err := flow.ClockedBenchGraph("c7552", 1)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{{Name: "c7552-clk", Graph: g}}
	count := &lastPollCtx{Context: context.Background()}
	if r := flow.AnalyzeBatchCtx(count, items, BatchOptions{Workers: 1})[0]; r.Err != nil || r.Seq == nil {
		t.Fatalf("uncancelled clocked item: seq %v, err %v", r.Seq, r.Err)
	}
	// The early walk polls as often as the late one: the item must poll at
	// least twice as often as the delay walk alone.
	late := &lastPollCtx{Context: context.Background()}
	if _, err := g.MaxDelayCtx(late); err != nil {
		t.Fatal(err)
	}
	if n, l := count.polls.Load(), late.polls.Load(); n < 2*l {
		t.Fatalf("clocked item polled ctx %d times, delay walk alone %d: the slack walks do not poll", n, l)
	}
	cut := &lastPollCtx{Context: context.Background(), cancelAt: count.polls.Load()}
	r := flow.AnalyzeBatchCtx(cut, items, BatchOptions{Workers: 1})[0]
	if !errors.Is(r.Err, context.Canceled) || r.Delay != nil || r.Seq != nil {
		t.Fatalf("item cancelled at its last poll: delay %v, seq %v, err %v", r.Delay, r.Seq, r.Err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := SweepAnalyzeGraph(ctx, g, []Scenario{{Name: "base"}, {Name: "fast", ClockPeriodPS: 400}}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep.Results {
		if !errors.Is(sr.Err, context.Canceled) || sr.SetupSlack != nil {
			t.Fatalf("scenario %q under a cancelled ctx: setup %v, err %v", sr.Name, sr.SetupSlack, sr.Err)
		}
	}
}

// TestClockedSessionSweepCancelled: a session edit whose ctx fires inside
// the last scenario's slack walks fails the re-analysis with an error
// wrapping context.Canceled, and the next edit rebuilds the sweep with
// slack for every scenario.
func TestClockedSessionSweepCancelled(t *testing.T) {
	flow := DefaultFlow()
	// Session analysis launches from the primary inputs only, so the
	// design needs an output reachable from them: the hand-written smoke
	// netlist, not a GenerateClocked one with registered inputs.
	c, err := ParseBench("smoke.bench", strings.NewReader(clockedSmokeBench))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := flow.Graph(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := flow.NewGraphSession(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	scens := []Scenario{{Name: "base"}, {Name: "fast", ClockPeriodPS: 400}}
	if _, err := s.SetSweep(ctx, scens, SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	edit := []Edit{{Op: EditScaleDelay, Edge: 1, Scale: 1.25}}
	count := &lastPollCtx{Context: ctx}
	if _, err := s.Apply(count, edit); err != nil {
		t.Fatal(err)
	}
	cut := &lastPollCtx{Context: ctx, cancelAt: count.polls.Load()}
	if _, err := s.Apply(cut, edit); !errors.Is(err, context.Canceled) {
		t.Fatalf("edit cancelled at its last poll: err %v, want context.Canceled", err)
	}
	rep, err := s.Apply(ctx, edit)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep.Sweep.Results {
		if sr.Err != nil || sr.SetupSlack == nil || sr.HoldSlack == nil {
			t.Fatalf("scenario %q after the cut edit: setup %v, hold %v, err %v", sr.Name, sr.SetupSlack, sr.HoldSlack, sr.Err)
		}
	}
}

// BenchmarkSequentialAnalyze measures clocked analysis on registered
// generated benchmarks: the sequential slack pass alone (late + early
// arrival propagation plus per-register slack assembly) on c880 and
// c7552, and a full clocked batch item (delay plus slack) on c7552.
func BenchmarkSequentialAnalyze(b *testing.B) {
	flow := DefaultFlow()
	clock := ClockSpec{PeriodPS: 700, JitterPS: 8}
	for _, name := range []string{"c880", "c7552"} {
		g, _, err := flow.ClockedBenchGraph(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"-clk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.SequentialSlacks(clock); err != nil {
					b.Fatal(err)
				}
			}
		})
		if name != "c7552" {
			continue
		}
		items := []BatchItem{{Name: name + "-clk", Graph: g}}
		b.Run(name+"-clk-item", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := flow.AnalyzeBatch(items, BatchOptions{Workers: 1})[0]; r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		})
	}
}

// TestDesignSessionSequentialMatchesAnalyze: a session over a sequential
// quad design analyzes like the design itself — delay, and worst setup and
// hold slack through a one-identity-scenario sweep — at creation and after
// a net-delay edit.
func TestDesignSessionSequentialMatchesAnalyze(t *testing.T) {
	flow := DefaultFlow()
	comb, err := ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Clocked(comb)
	if err != nil {
		t.Fatal(err)
	}
	g, plan, err := flow.Graph(c)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flow.Extract(g, ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule("sm4", model, plan)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flow.QuadDesign("quad", mod)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = 0.99865
	check := func(label string, delay *Form, sweep *SweepReport, want *Design) {
		t.Helper()
		res, err := want.AnalyzeCtx(ctx, FullCorrelation, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sequential == nil {
			t.Fatal("fixture: design analysis is not sequential")
		}
		if diff := sessionFormDiff(delay, res.Delay); diff > 1e-9 {
			t.Fatalf("%s: session delay differs from Analyze by %g", label, diff)
		}
		sr := sweep.Results[0]
		if sr.Err != nil || sr.SetupSlack == nil || sr.HoldSlack == nil {
			t.Fatalf("%s: sweep setup %v, hold %v, err %v", label, sr.SetupSlack, sr.HoldSlack, sr.Err)
		}
		setup, hold := scenario.SeqSlackStats(res.Sequential, q)
		for _, p := range []struct {
			name      string
			got, want *scenario.SlackStat
		}{{"setup", sr.SetupSlack, setup}, {"hold", sr.HoldSlack, hold}} {
			if math.Abs(p.got.Mean-p.want.Mean) > 1e-9 || math.Abs(p.got.Std-p.want.Std) > 1e-9 ||
				math.Abs(p.got.Quantile-p.want.Quantile) > 1e-9 {
				t.Fatalf("%s: worst %s slack %+v, Analyze %+v", label, p.name, *p.got, *p.want)
			}
		}
	}

	s, err := flow.NewDesignSession(ctx, d, FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := s.SetSweep(ctx, []Scenario{{Name: "base"}}, SweepOptions{Workers: 1, Quantile: q})
	if err != nil {
		t.Fatal(err)
	}
	check("created", s.Delay(), sweep, d)

	rep, err := s.Apply(ctx, []Edit{{Op: EditSetNetDelay, Net: 0, Value: 17}})
	if err != nil {
		t.Fatal(err)
	}
	mirror := d.CopyStructure()
	mirror.Nets[0].Delay = 17
	check("set_net_delay", rep.Delay, rep.Sweep, mirror)
}
