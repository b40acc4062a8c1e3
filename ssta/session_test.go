package ssta

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func sessionFormDiff(a, b *Form) float64 {
	rel := func(x, y float64) float64 {
		d := math.Abs(x - y)
		s := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return d / s
	}
	d := rel(a.Nominal, b.Nominal)
	for i := range a.Glob {
		if r := rel(a.Glob[i], b.Glob[i]); r > d {
			d = r
		}
	}
	for i := range a.Loc {
		if r := rel(a.Loc[i], b.Loc[i]); r > d {
			d = r
		}
	}
	if r := rel(a.Rand, b.Rand); r > d {
		d = r
	}
	return d
}

// randomFlatEdit draws one applicable flat-session edit for a graph with
// the given shape. The same Edit is applied to the session and replayed on
// the reference clone, so both see identical mutations.
func randomFlatEdit(rng *rand.Rand, g *Graph) (Edit, bool) {
	liveEdge := func() int {
		for {
			ei := rng.Intn(len(g.Edges))
			if !g.Edges[ei].Removed {
				return ei
			}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Edit{Op: EditScaleDelay, Edge: liveEdge(), Scale: 0.5 + rng.Float64()*1.5}, true
	case 1:
		return Edit{Op: EditSetNominal, Edge: liveEdge(), Value: 10 + rng.Float64()*200}, true
	case 2:
		from, to := rng.Intn(g.NumVerts), rng.Intn(g.NumVerts)
		if from == to {
			return Edit{}, false
		}
		return Edit{Op: EditAddEdge, From: from, To: to, Value: 5 + rng.Float64()*100}, true
	default:
		return Edit{Op: EditRemoveEdge, Edge: liveEdge()}, true
	}
}

// replayFlatEdit applies one Edit to a reference graph through the timing
// edit API directly.
func replayFlatEdit(t *testing.T, g *Graph, e Edit) bool {
	t.Helper()
	switch e.Op {
	case EditScaleDelay:
		if err := g.ScaleEdgeDelay(e.Edge, e.Scale); err != nil {
			t.Fatal(err)
		}
	case EditSetNominal:
		if err := g.SetEdgeNominal(e.Edge, e.Value); err != nil {
			t.Fatal(err)
		}
	case EditAddEdge:
		if _, err := g.AddEdgeLive(e.From, e.To, g.Space.Const(e.Value), nil, 0); err != nil {
			return false // cycle: the session rejects it identically
		}
	case EditRemoveEdge:
		if err := g.RemoveEdge(e.Edge); err != nil {
			t.Fatal(err)
		}
	}
	return true
}

// TestGraphSessionRandomizedGolden is the flat randomized edit-sequence
// golden test: batches of random edits applied through Session.Apply must
// match a from-scratch full analysis of an identically edited graph at
// 1e-9, and the incremental engine must actually be incremental.
func TestGraphSessionRandomizedGolden(t *testing.T) {
	flow := DefaultFlow()
	for _, bench := range []string{"c432", "c880"} {
		t.Run(bench, func(t *testing.T) {
			base, _, err := flow.BenchGraph(bench, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := flow.NewGraphSession(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			// The session clones; the base graph stays pristine for replay.
			ref := base.Clone()
			first, err := ref.MaxDelay()
			if err != nil {
				t.Fatal(err)
			}
			if d := sessionFormDiff(sess.Delay(), first); d > 1e-12 {
				t.Fatalf("initial session delay differs by %g", d)
			}
			rng := rand.New(rand.NewSource(11))
			fullRepropags := 0
			for round := 0; round < 12; round++ {
				var batch []Edit
				for len(batch) < 3 {
					e, ok := randomFlatEdit(rng, ref)
					if !ok {
						continue
					}
					if !replayFlatEdit(t, ref, e) {
						continue // cycle-rejected on the reference
					}
					batch = append(batch, e)
				}
				rep, err := sess.Apply(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Applied != len(batch) {
					t.Fatalf("round %d: applied %d of %d", round, rep.Applied, len(batch))
				}
				if rep.FullReprop {
					fullRepropags++
				}
				want, err := ref.MaxDelay()
				if err != nil {
					t.Fatal(err)
				}
				if d := sessionFormDiff(rep.Delay, want); d > 1e-9 {
					t.Fatalf("round %d: session delay differs from replayed full analysis by %g", round, d)
				}
				if rep.Recomputed > rep.TotalVerts {
					t.Fatalf("round %d: recomputed %d > %d vertices", round, rep.Recomputed, rep.TotalVerts)
				}
			}
			if fullRepropags == 12 {
				t.Fatal("every batch fell back to full re-propagation — nothing incremental about it")
			}
		})
	}
}

// TestClockedGraphSessionMatchesAnalyze: a session on a registered graph
// launches from the clock roots like every full analysis, so its delay
// equals the batch analysis of the same graph at 1e-9 — at creation and
// after each batch of edits.
func TestClockedGraphSessionMatchesAnalyze(t *testing.T) {
	flow := DefaultFlow()
	for _, bench := range []string{"c432", "c1908"} {
		t.Run(bench, func(t *testing.T) {
			base, _, err := flow.ClockedBenchGraph(bench, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := flow.NewGraphSession(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			ref := base.Clone()
			analyze := func() *Form {
				t.Helper()
				r := flow.AnalyzeBatch([]BatchItem{{Graph: ref}}, BatchOptions{Workers: 1})[0]
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				return r.Delay
			}
			if d := sessionFormDiff(sess.Delay(), analyze()); d > 1e-9 {
				t.Fatalf("initial session delay differs from analyze by %g", d)
			}
			rng := rand.New(rand.NewSource(5))
			for round := 0; round < 4; round++ {
				var batch []Edit
				for len(batch) < 3 {
					if e, ok := randomFlatEdit(rng, ref); ok && replayFlatEdit(t, ref, e) {
						batch = append(batch, e)
					}
				}
				rep, err := sess.Apply(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				if d := sessionFormDiff(rep.Delay, analyze()); d > 1e-9 {
					t.Fatalf("round %d: session delay differs from analyze by %g", round, d)
				}
			}
		})
	}
}

// TestGraphSessionRejectsBadEdit checks error surfacing and that a failed
// batch leaves the session consistent (earlier edits applied, usable).
func TestGraphSessionRejectsBadEdit(t *testing.T) {
	flow := DefaultFlow()
	base, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := flow.NewGraphSession(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	ref := base.Clone()
	if err := ref.ScaleEdgeDelay(3, 2); err != nil {
		t.Fatal(err)
	}
	partial, err := sess.Apply(context.Background(), []Edit{
		{Op: EditScaleDelay, Edge: 3, Scale: 2},
		{Op: EditScaleDelay, Edge: len(base.Edges) + 7, Scale: 2}, // out of range
	})
	if err == nil {
		t.Fatal("out-of-range edit accepted")
	}
	// The report rides along with the error so callers can see the partial
	// application — resending the batch would double-apply edit #0.
	if partial == nil || partial.Applied != 1 {
		t.Fatalf("failed batch reported %+v, want Applied=1", partial)
	}
	// Hierarchical-only ops must be rejected on flat sessions.
	if _, err := sess.Apply(context.Background(), []Edit{{Op: EditSetNetDelay, Net: 0, Value: 1}}); err == nil {
		t.Fatal("net edit accepted on a flat session")
	}
	if _, err := sess.Apply(context.Background(), []Edit{{Op: EditSwapModule, Instance: "A"}}); err == nil {
		t.Fatal("module swap accepted on a flat session")
	}
	// The session is still alive and its state reflects edit #0 of the
	// failed batch (partial application is documented).
	rep, err := sess.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d := sessionFormDiff(rep.Delay, want); d > 1e-9 {
		t.Fatalf("session state inconsistent after failed batch (diff %g)", d)
	}
}

// quadFixture builds a quad design over an extracted benchmark module plus
// a same-footprint replacement module.
func quadFixture(t *testing.T, flow *Flow, bench string) (*Design, *Module, *Module) {
	t.Helper()
	mkMod := func(seed int64) *Module {
		g, plan, err := flow.BenchGraph(bench, seed)
		if err != nil {
			t.Fatal(err)
		}
		model, err := flow.Extract(g, ExtractOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModule(bench, model, plan)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	mod, alt := mkMod(1), mkMod(2)
	d, err := flow.QuadDesign("quad", mod)
	if err != nil {
		t.Fatal(err)
	}
	return d, mod, alt
}

// TestDesignSessionRandomizedGolden drives a hierarchical session through
// random module swaps and net-delay edits and checks every state against a
// from-scratch Analyze of an equivalently mutated design copy.
func TestDesignSessionRandomizedGolden(t *testing.T) {
	flow := DefaultFlow()
	d, mod, alt := quadFixture(t, flow, "c432")
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		sess, err := flow.NewDesignSession(context.Background(), d, mode, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Mirror of the session's design state for the reference analysis.
		mirror := d.CopyStructure()
		rng := rand.New(rand.NewSource(3))
		names := []string{"A", "B", "C", "D"}
		mods := []*Module{mod, alt}
		for round := 0; round < 6; round++ {
			var e Edit
			if rng.Intn(2) == 0 {
				inst := names[rng.Intn(len(names))]
				m := mods[rng.Intn(2)]
				e = Edit{Op: EditSwapModule, Instance: inst, Module: m}
				for i, in := range mirror.Instances {
					if in.Name == inst {
						mirror.Instances[i].Module = m
					}
				}
			} else {
				net := rng.Intn(len(mirror.Nets))
				ps := rng.Float64() * 40
				e = Edit{Op: EditSetNetDelay, Net: net, Value: ps}
				mirror.Nets[net].Delay = ps
			}
			rep, err := sess.Apply(context.Background(), []Edit{e})
			if err != nil {
				t.Fatal(err)
			}
			res, err := mirror.CopyStructure().Analyze(mode)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sessionFormDiff(rep.Delay, res.Delay); diff > 1e-9 {
				t.Fatalf("mode %v round %d (%v): session differs from Analyze by %g",
					mode, round, e.Op, diff)
			}
			if e.Op == EditSwapModule && !rep.FullReprop {
				t.Fatal("module swap did not report a full re-propagation")
			}
			if e.Op == EditSetNetDelay && rep.FullReprop {
				t.Fatal("net edit needlessly re-propagated everything")
			}
		}
		// The original design must be untouched throughout.
		if d.Instances[1].Module != mod {
			t.Fatal("session mutated the caller's design")
		}
	}
}

// TestSessionRecoversInterruptedRefresh reproduces the interrupted-refresh
// hazard: a module swap committed and the graph was already re-fetched,
// but the incremental rebuild failed (a client timeout mid-propagation)
// before s.inc was rebuilt, leaving it bound to the discarded graph. The
// next Apply must detect the identity mismatch and rebuild instead of
// serving the old graph's (pre-swap) delays.
func TestSessionRecoversInterruptedRefresh(t *testing.T) {
	flow := DefaultFlow()
	d, _, alt := quadFixture(t, flow, "c432")
	sess, err := flow.NewDesignSession(context.Background(), d, FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn state directly: swap + graph re-fetch without the
	// rebuild.
	if err := sess.hs.SwapModule(context.Background(), "B", alt); err != nil {
		t.Fatal(err)
	}
	sess.graph = sess.hs.Graph()
	if sess.inc.Graph() == sess.graph {
		t.Fatal("fixture did not detach the incremental state from the live graph")
	}

	mirror := d.CopyStructure()
	for i := range mirror.Instances {
		if mirror.Instances[i].Name == "B" {
			mirror.Instances[i].Module = alt
		}
	}
	mirror.Nets[0].Delay = 17
	rep, err := sess.Apply(context.Background(), []Edit{{Op: EditSetNetDelay, Net: 0, Value: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullReprop {
		t.Fatal("recovery from a detached incremental state must rebuild fully")
	}
	res, err := mirror.CopyStructure().Analyze(FullCorrelation)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sessionFormDiff(rep.Delay, res.Delay); diff > 1e-9 {
		t.Fatalf("post-recovery delay differs from from-scratch Analyze by %g", diff)
	}

	// The other torn state: the rebuild dropped the old state and then
	// failed, leaving no incremental state at all.
	sess.inc = nil
	rep, err = sess.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullReprop {
		t.Fatal("recovery from a nil incremental state must rebuild fully")
	}
	if diff := sessionFormDiff(rep.Delay, res.Delay); diff > 1e-9 {
		t.Fatalf("post-nil-recovery delay differs from from-scratch Analyze by %g", diff)
	}
}

// TestSessionReanalysisFailureIsTyped checks that a failed post-edit
// re-analysis surfaces as a ReanalysisError (unwrapping to the underlying
// cancellation) and that the session recovers on the next Apply.
func TestSessionReanalysisFailureIsTyped(t *testing.T) {
	flow := DefaultFlow()
	base, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := flow.NewGraphSession(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.Apply(ctx, []Edit{{Op: EditScaleDelay, Edge: 0, Scale: 2}})
	if err == nil {
		t.Fatal("apply under a cancelled context succeeded")
	}
	var re *ReanalysisError
	if !errors.As(err, &re) {
		t.Fatalf("want ReanalysisError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not visible through the wrapper: %v", err)
	}
	// The edit stayed applied (documented partial application); recovery
	// rebuilds and matches a reference with the same edit.
	ref := base.Clone()
	if err := ref.ScaleEdgeDelay(0, 2); err != nil {
		t.Fatal(err)
	}
	want, err := ref.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := sessionFormDiff(rep.Delay, want); d > 1e-9 {
		t.Fatalf("post-recovery delay differs by %g", d)
	}

	// Combined failure: a validation error in the batch plus a cancelled
	// re-analysis of the applied prefix. The cancellation classification
	// must survive alongside the edit error, and the report must still
	// disclose the partial application.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	rep, err = sess.Apply(ctx2, []Edit{
		{Op: EditScaleDelay, Edge: 1, Scale: 1.5},
		{Op: EditScaleDelay, Edge: len(base.Edges) + 3, Scale: 2}, // out of range
	})
	if err == nil {
		t.Fatal("combined-failure batch succeeded")
	}
	if !errors.As(err, &re) {
		t.Fatalf("combined failure lost the ReanalysisError: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("combined failure lost the cancellation: %v", err)
	}
	if rep == nil || rep.Applied != 1 {
		t.Fatalf("combined failure reported %+v, want Applied=1", rep)
	}
}

// TestSessionsConcurrent exercises the race surface: distinct sessions in
// parallel (sharing the flow and extraction cache) plus concurrent edit
// batches against one shared session.
func TestSessionsConcurrent(t *testing.T) {
	flow := DefaultFlow()
	base, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := flow.NewGraphSession(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	d, _, alt := quadFixture(t, flow, "c432")

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Private flat sessions, each editing its own clone.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := flow.NewGraphSession(context.Background(), base)
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < 5; k++ {
				if _, err := s.Apply(context.Background(), []Edit{
					{Op: EditScaleDelay, Edge: (w*31 + k) % len(base.Edges), Scale: 1.1},
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Concurrent batches against the shared session (serialized inside).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if _, err := shared.Apply(context.Background(), []Edit{
					{Op: EditScaleDelay, Edge: (w*17 + k) % len(base.Edges), Scale: 1.05},
				}); err != nil {
					errs <- err
					return
				}
				shared.Info()
			}
		}(w)
	}
	// Two hierarchical sessions swapping modules concurrently.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := flow.NewDesignSession(context.Background(), d, FullCorrelation, AnalyzeOptions{Workers: 1})
			if err != nil {
				errs <- err
				return
			}
			if _, err := s.Apply(context.Background(), []Edit{
				{Op: EditSwapModule, Instance: "C", Module: alt},
				{Op: EditSetNetDelay, Net: 0, Value: 12},
			}); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if shared.Delay() == nil {
		t.Fatal("shared session lost its delay")
	}
}
