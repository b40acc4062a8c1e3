package ssta

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// checkDeltaRestore restores base+delta and a full snapshot taken at the
// same moment, and checks both against each other and the live session:
// identical delay blobs and delay banks, and the same circuit delay.
func checkDeltaRestore(t *testing.T, f *Flow, s *Session, base *SessionSnapshot, d *SessionDelta) {
	t.Helper()
	ctx := context.Background()
	full := s.Snapshot()
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var dd SessionDelta
	if err := json.Unmarshal(data, &dd); err != nil {
		t.Fatal(err)
	}
	patched, err := base.WithDelta(&dd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(patched.Graph.Delays, full.Graph.Delays) {
		t.Fatal("base+delta delays differ from a full snapshot's")
	}
	rd, err := f.RestoreSession(ctx, patched)
	if err != nil {
		t.Fatalf("restore base+delta: %v", err)
	}
	rf, err := f.RestoreSession(ctx, full)
	if err != nil {
		t.Fatalf("restore full: %v", err)
	}
	if !slicesBitEqual(rd.Graph().EdgeDelays().Data(), rf.Graph().EdgeDelays().Data()) ||
		!slicesBitEqual(rd.Graph().EdgeDelays().Data(), s.Graph().EdgeDelays().Data()) {
		t.Fatal("restored delay banks differ")
	}
	a, b := rd.Delay(), rf.Delay()
	if math.Float64bits(a.Mean()) != math.Float64bits(b.Mean()) || math.Float64bits(a.Std()) != math.Float64bits(b.Std()) {
		t.Fatalf("base+delta restores to %.17g/%.17g, a full snapshot to %.17g/%.17g", a.Mean(), a.Std(), b.Mean(), b.Std())
	}
	// The live delay is maintained incrementally, which matches a full
	// propagation to the engine's tolerance, not bit for bit.
	if l := s.Delay(); !restoreTol(a.Mean(), l.Mean()) || !restoreTol(a.Std(), l.Std()) {
		t.Fatalf("restored delay %.17g/%.17g, live %.17g/%.17g", a.Mean(), a.Std(), l.Mean(), l.Std())
	}
}

func slicesBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCheckpointDeltaRandomizedFlat drives a flat session through random
// edit batches — scales, new nominals, batches later undone, and the odd
// added or removed edge — checkpointing the way the server's flusher
// does: a delta after every batch, a new base when the session refuses
// one. Each delta restores to the live state, and a structural edit or a
// settings change always forces a new base.
func TestCheckpointDeltaRandomizedFlat(t *testing.T) {
	f, s := persistFlow(t)
	ctx := context.Background()
	if s.CheckpointDelta() != nil {
		t.Fatal("delta captured before any base")
	}
	base := s.CheckpointBase()
	rng := rand.New(rand.NewSource(7))
	scales := []float64{0.25, 0.5, 2, 4}
	var undo [][]Edit
	removed := map[int]bool{20: true} // persistFlow removed edge 20
	liveEdge := func() int {
		for {
			if e := rng.Intn(len(s.Graph().Edges)); !removed[e] {
				return e
			}
		}
	}
	rebases, deltas := 0, 0
	for step := 0; step < 40; step++ {
		var batch []Edit
		structural := false
		switch u := rng.Float64(); {
		case u < 0.3 && len(undo) > 0:
			batch, undo = undo[0], undo[1:]
		case u < 0.4:
			structural = true
			if rng.Intn(2) == 0 {
				e := liveEdge()
				removed[e] = true
				batch = []Edit{{Op: EditRemoveEdge, Edge: e}}
			} else {
				g := s.Graph()
				from, to := g.Edges[liveEdge()].From, g.Edges[liveEdge()].To
				batch = []Edit{{Op: EditAddEdge, From: from, To: to, Value: 3}}
			}
		case u < 0.45:
			structural = true
			if rng.Intn(2) == 0 {
				if _, err := s.SetSweep(ctx, []Scenario{{Name: "slow", Derate: 1.1}}, SweepOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			} else {
				s.ClearSweep()
			}
		default:
			var back []Edit
			for k := 1 + rng.Intn(4); k > 0; k-- {
				e := liveEdge()
				if rng.Intn(3) == 0 {
					batch = append(batch, Edit{Op: EditSetNominal, Edge: e, Value: 10 + float64(rng.Intn(90))})
					continue
				}
				sc := scales[rng.Intn(len(scales))]
				batch = append(batch, Edit{Op: EditScaleDelay, Edge: e, Scale: sc})
				back = append([]Edit{{Op: EditScaleDelay, Edge: e, Scale: 1 / sc}}, back...)
			}
			if len(back) == len(batch) {
				undo = append(undo, back)
			}
		}
		if len(batch) > 0 {
			if _, err := s.Apply(ctx, batch); err != nil {
				if batch[0].Op != EditAddEdge {
					t.Fatal(err)
				}
				structural = false // an add_edge closing a cycle changes nothing
			}
		}
		d := s.CheckpointDelta()
		if structural != (d == nil) {
			t.Fatalf("step %d: structural change %v, delta captured %v", step, structural, d != nil)
		}
		if d == nil {
			base = s.CheckpointBase()
			rebases++
			continue
		}
		checkDeltaRestore(t, f, s, base, d)
		deltas++
	}
	if rebases == 0 || deltas < 10 {
		t.Fatalf("%d rebases and %d deltas: the sequence did not cover both", rebases, deltas)
	}
}

// TestCheckpointDeltaHier: net-delay edits on a hierarchical session
// travel as deltas (restoring flat, like a full snapshot); a module swap
// recommits the top graph and forces a new base.
func TestCheckpointDeltaHier(t *testing.T) {
	f := DefaultFlow()
	ctx := context.Background()
	d, _, alt := quadFixture(t, f, "c432")
	s, err := f.NewDesignSession(ctx, d, FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := s.CheckpointBase()
	rng := rand.New(rand.NewSource(11))
	nets := len(s.Design().Nets)
	swaps, deltas := 0, 0
	for step := 0; step < 12; step++ {
		var batch []Edit
		swap := step%4 == 3
		if swap {
			batch = []Edit{{Op: EditSwapModule, Instance: "B", Module: alt}}
		} else {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				batch = append(batch, Edit{Op: EditSetNetDelay, Net: rng.Intn(nets), Value: float64(rng.Intn(40))})
			}
		}
		if _, err := s.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		dl := s.CheckpointDelta()
		if swap != (dl == nil) {
			t.Fatalf("step %d: swap %v, delta captured %v", step, swap, dl != nil)
		}
		if dl == nil {
			base = s.CheckpointBase()
			swaps++
			continue
		}
		checkDeltaRestore(t, f, s, base, dl)
		deltas++
	}
	if swaps == 0 || deltas == 0 {
		t.Fatalf("%d swaps and %d deltas", swaps, deltas)
	}
}

// TestCheckpointDeltaConcurrentWithEdits: bases and deltas captured while
// another goroutine edits are each one consistent state: every delta,
// applied to the base before it, restores and propagates to the mean it
// recorded.
func TestCheckpointDeltaConcurrentWithEdits(t *testing.T) {
	f, s := persistFlow(t)
	ctx := context.Background()
	n := len(s.Graph().Edges)
	base := s.CheckpointBase()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			if _, err := s.Apply(ctx, []Edit{
				{Op: EditScaleDelay, Edge: (7 * k) % n, Scale: 2},
				{Op: EditSetNominal, Edge: (11*k + 1) % n, Value: 30 + float64(k)},
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < 10; k++ {
		if k%4 == 3 {
			base = s.CheckpointBase()
			continue
		}
		d := s.CheckpointDelta()
		if d == nil {
			t.Fatalf("capture %d: no delta after delay-only edits", k)
		}
		snap, err := base.WithDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.RestoreSession(ctx, snap); err != nil {
			t.Errorf("delta %d taken during edits does not restore: %v", k, err)
			break
		}
	}
	wg.Wait()
}
