package ssta

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/store"
)

// persistFlow builds a small flow + flat session with some edit history.
func persistFlow(t *testing.T) (*Flow, *Session) {
	t.Helper()
	f := DefaultFlow()
	g, _, err := f.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := f.NewGraphSession(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(ctx, []Edit{
		{Op: EditScaleDelay, Edge: 3, Scale: 1.25},
		{Op: EditSetNominal, Edge: 10, Value: 42.5},
		{Op: EditRemoveEdge, Edge: 20},
		{Op: EditAddEdge, From: s.Graph().Edges[5].From, To: s.Graph().Edges[30].To, Value: 17.0},
	}); err != nil {
		t.Fatal(err)
	}
	return f, s
}

func restoreTol(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
}

func TestSessionSnapshotRoundTripFlat(t *testing.T) {
	f, s := persistFlow(t)
	ctx := context.Background()

	snap := s.Snapshot()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSessionSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := f.RestoreSession(ctx, decoded)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}

	d0, d1 := s.Delay(), rs.Delay()
	if !restoreTol(d0.Mean(), d1.Mean()) || !restoreTol(d0.Std(), d1.Std()) {
		t.Fatalf("restored delay %.12g/%.12g, want %.12g/%.12g", d1.Mean(), d1.Std(), d0.Mean(), d0.Std())
	}

	// The restored session answers the same edit batch identically.
	edits := []Edit{
		{Op: EditScaleDelay, Edge: 7, Scale: 0.8},
		{Op: EditSetNominal, Edge: 15, Value: 33.0},
	}
	r0, err := s.Apply(ctx, edits)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := rs.Apply(ctx, edits)
	if err != nil {
		t.Fatal(err)
	}
	if !restoreTol(r0.Delay.Mean(), r1.Delay.Mean()) || !restoreTol(r0.Delay.Std(), r1.Delay.Std()) {
		t.Fatalf("post-edit delay diverged: %.12g vs %.12g", r0.Delay.Mean(), r1.Delay.Mean())
	}
}

func TestSessionSnapshotRoundTripSweepAndCriticality(t *testing.T) {
	f, s := persistFlow(t)
	ctx := context.Background()

	scens := []Scenario{
		{Name: "slow", Derate: 1.1},
		{Name: "cells-fast", CellScale: 0.9, EdgeScales: map[int]float64{4: 1.3}},
		{Name: "sigma-up", GlobSigma: 1.2, LocSigma: 1.1, RandSigma: 0.9},
	}
	if _, err := s.SetSweep(ctx, scens, SweepOptions{Workers: 2, TopK: 2, Quantile: 0.99}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableCriticality(ctx, CriticalityOptions{Workers: 2, ScreenDelta: 0.01}); err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	if snap.Sweep == nil || len(snap.Sweep.Scenarios) != 3 || snap.Crit == nil {
		t.Fatalf("snapshot missing sweep/crit state: %+v", snap)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSessionSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := f.RestoreSession(ctx, decoded)
	if err != nil {
		t.Fatal(err)
	}

	sw0, sw1 := s.Sweep(), rs.Sweep()
	if sw1 == nil || len(sw1.Results) != len(sw0.Results) {
		t.Fatalf("restored sweep missing: %+v", sw1)
	}
	for i := range sw0.Results {
		a, b := sw0.Results[i], sw1.Results[i]
		if a.Name != b.Name || !restoreTol(a.Mean, b.Mean) || !restoreTol(a.Quantile, b.Quantile) {
			t.Fatalf("scenario %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if rs.Criticality() == nil {
		t.Fatal("restored session lost criticality tracking")
	}

	// One more edit batch: sweeps and criticality refresh identically.
	edits := []Edit{{Op: EditScaleDelay, Edge: 2, Scale: 1.05}}
	r0, err := s.Apply(ctx, edits)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := rs.Apply(ctx, edits)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sweep == nil || r1.Criticality == nil {
		t.Fatal("restored session edit report missing sweep/criticality")
	}
	for i := range r0.Sweep.Results {
		if !restoreTol(r0.Sweep.Results[i].Mean, r1.Sweep.Results[i].Mean) {
			t.Fatalf("post-edit sweep scenario %d diverged", i)
		}
	}
}

func TestSessionSnapshotHierRestoresFlat(t *testing.T) {
	f := DefaultFlow()
	ctx := context.Background()
	d, _, _ := quadFixture(t, f, "c432")
	s, err := f.NewDesignSession(ctx, d, FullCorrelation, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if !snap.Hier {
		t.Fatal("snapshot not marked hierarchical")
	}
	rs, err := f.RestoreSession(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Hierarchical() {
		t.Fatal("restored session claims to be hierarchical")
	}
	if !restoreTol(s.Delay().Mean(), rs.Delay().Mean()) {
		t.Fatalf("hier restore delay %.12g, want %.12g", rs.Delay().Mean(), s.Delay().Mean())
	}
	// Edge edits work on the restored (now flat) session; design edits fail.
	if _, err := rs.Apply(ctx, []Edit{{Op: EditScaleDelay, Edge: 0, Scale: 1.1}}); err != nil {
		t.Fatalf("edge edit on restored session: %v", err)
	}
	if _, err := rs.Apply(ctx, []Edit{{Op: EditSetNetDelay, Net: 0, Value: 5}}); err == nil {
		t.Fatal("net edit accepted on restored flat session")
	}
}

func TestDecodeSessionSnapshotRejectsCorruptAndSkew(t *testing.T) {
	_, s := persistFlow(t)
	data, err := s.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Truncation and bit flips are corrupt.
	if _, err := DecodeSessionSnapshot(data[:len(data)-10]); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("truncated: %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x40
	if _, err := DecodeSessionSnapshot(flipped); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("bit flip: %v, want ErrCorrupt", err)
	}
	if _, err := DecodeSessionSnapshot([]byte("garbage")); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("garbage: %v, want ErrCorrupt", err)
	}

	// A valid envelope of the wrong kind or version is skew, not corruption.
	wrongKind := store.Seal("something-else", SessionSnapshotVersion, []byte("{}"))
	if _, err := DecodeSessionSnapshot(wrongKind); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("wrong kind: %v, want ErrVersion", err)
	}
	wrongVer := store.Seal(SessionSnapshotKind, SessionSnapshotVersion+1, []byte("{}"))
	if _, err := DecodeSessionSnapshot(wrongVer); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("wrong version: %v, want ErrVersion", err)
	}
	// Version 1 wrote each edge delay as JSON numbers; it is not read.
	v1 := store.Seal(SessionSnapshotKind, 1, []byte("{}"))
	if _, err := DecodeSessionSnapshot(v1); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("version 1: %v, want ErrVersion", err)
	}

	// A checksummed envelope around garbage JSON is corrupt.
	badJSON := store.Seal(SessionSnapshotKind, SessionSnapshotVersion, []byte("{not json"))
	if _, err := DecodeSessionSnapshot(badJSON); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("bad payload: %v, want ErrCorrupt", err)
	}
}

// TestSessionSnapshotConcurrentWithEdits: Session.Snapshot packs the graph
// after releasing the session lock, while edits go on. Every snapshot must
// still be one consistent state: its graph restores and propagates to the
// mean it recorded.
func TestSessionSnapshotConcurrentWithEdits(t *testing.T) {
	f, s := persistFlow(t)
	ctx := context.Background()
	n := len(s.Graph().Edges)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			if _, err := s.Apply(ctx, []Edit{
				{Op: EditScaleDelay, Edge: (7 * k) % n, Scale: 1.1},
				{Op: EditSetNominal, Edge: (11*k + 1) % n, Value: 30 + float64(k)},
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < 10; k++ {
		if _, err := f.RestoreSession(ctx, s.Snapshot()); err != nil {
			t.Errorf("snapshot %d taken during edits does not restore: %v", k, err)
			break
		}
	}
	wg.Wait()
}

func TestRestoreSessionIntegrityCrossCheck(t *testing.T) {
	f, s := persistFlow(t)
	// Snapshots that decode cleanly but claim a different answer: a wrong
	// mean, a NaN mean, and a missing mean_ps (decoded as 0).
	for _, mean := range []float64{1.5 * s.Delay().Mean(), math.NaN(), 0} {
		snap := s.Snapshot()
		snap.MeanPS = mean
		if _, err := f.RestoreSession(context.Background(), snap); err == nil {
			t.Fatalf("RestoreSession accepted a snapshot recording mean %g", mean)
		}
	}
}

func TestModelSnapshotRoundTrip(t *testing.T) {
	f := DefaultFlow()
	g, _, err := f.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Extract(g, ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := DecodeModelSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Graph.NumVerts != m.Graph.NumVerts || len(rm.Graph.Edges) != len(m.Graph.Edges) {
		t.Fatalf("model shape mismatch: %d/%d verts, %d/%d edges",
			rm.Graph.NumVerts, m.Graph.NumVerts, len(rm.Graph.Edges), len(m.Graph.Edges))
	}
	// Same bytes on re-encode (modulo the envelope being deterministic).
	data2, err := rm.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("model snapshot re-encode differs")
	}
	if _, err := DecodeModelSnapshot([]byte("junk")); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("junk model: %v, want ErrCorrupt", err)
	}
}

// TestSessionSnapshotAppendJSONMatchesMarshal: AppendJSON writes exactly
// the bytes json.Marshal gives for flat sessions with criticality on,
// hierarchical sessions and a snapshot without a graph.
func TestSessionSnapshotAppendJSONMatchesMarshal(t *testing.T) {
	f, flat := persistFlow(t)
	ctx := context.Background()
	if _, err := flat.EnableCriticality(ctx, CriticalityOptions{}); err != nil {
		t.Fatal(err)
	}
	d, _, _ := quadFixture(t, f, "c432")
	hier, err := f.NewDesignSession(ctx, d, FullCorrelation, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*SessionSnapshot{
		"flat": flat.Snapshot(), "hier": hier.Snapshot(), "no graph": {MeanPS: 3},
	} {
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.AppendJSON(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON differs from json.Marshal:\n%.300s\n%.300s", name, got, want)
		}
	}
}
