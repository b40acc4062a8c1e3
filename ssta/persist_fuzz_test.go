package ssta

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/store"
	"repro/internal/timing"
)

// FuzzSnapshotDecode drives arbitrary bytes through the session-snapshot
// decoder: it must never panic, and anything it accepts must round-trip
// bit-identically through encode/decode. Accepted graphs additionally go
// through FromSnapshot, which must validate without panicking, and a
// successfully rebuilt graph must re-snapshot to the same structure.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a real session snapshot, assorted corruptions of it, and
	// bare envelope edge cases.
	flow := DefaultFlow()
	g, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		f.Fatal(err)
	}
	s, err := flow.NewGraphSession(context.Background(), g)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), []Edit{
		{Op: EditScaleDelay, Edge: 1, Scale: 1.2},
		{Op: EditRemoveEdge, Edge: 0},
	}); err != nil {
		f.Fatal(err)
	}
	valid, err := s.Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(store.Seal(SessionSnapshotKind, SessionSnapshotVersion, []byte("{}")))
	// A one-edge graph FromSnapshot accepts, and the same graph with a NaN
	// mean, which only the packed layout can carry.
	oneEdge := func(delay ...float64) []byte {
		blob := make([]byte, 8*len(delay))
		for i, x := range delay {
			binary.LittleEndian.PutUint64(blob[8*i:], math.Float64bits(x))
		}
		return store.Seal(SessionSnapshotKind, SessionSnapshotVersion,
			[]byte(`{"graph":{"globals":1,"components":1,"num_verts":2,"edges":[{"from":0,"to":1}],"delays":"`+
				base64.StdEncoding.EncodeToString(blob)+`"}}`))
	}
	f.Add(oneEdge(3, 0.1, 0.2, 0.3))
	f.Add(oneEdge(math.NaN(), 0.1, 0.2, 0.3))
	f.Add(store.Seal(SessionSnapshotKind, SessionSnapshotVersion,
		[]byte(`{"graph":{"num_verts":-5,"edges":[{"from":9,"to":9}]}}`)))
	f.Add(store.Seal("wrong-kind", 99, []byte("{}")))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSessionSnapshot(data)
		if err != nil {
			return // rejected; the only requirement is no panic
		}
		// Accepted snapshots round-trip bit-identically.
		enc, err := snap.Encode()
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		snap2, err := DecodeSessionSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(snap, snap2) {
			t.Fatal("snapshot round-trip not identical")
		}
		enc2, err := snap2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("snapshot re-encode not bit-identical")
		}
		// Graph reconstruction validates instead of panicking; a graph it
		// accepts must re-snapshot to an equivalent structure and to the
		// same delay bytes.
		if snap.Graph != nil {
			rg, err := timing.FromSnapshot(snap.Graph)
			if err != nil {
				return
			}
			rs := rg.Snapshot()
			if rs.NumVerts != snap.Graph.NumVerts || len(rs.Edges) != len(snap.Graph.Edges) {
				t.Fatalf("rebuilt graph shape %d/%d differs from snapshot %d/%d",
					rs.NumVerts, len(rs.Edges), snap.Graph.NumVerts, len(snap.Graph.Edges))
			}
			if !bytes.Equal(rs.Delays, snap.Graph.Delays) {
				t.Fatal("rebuilt graph's delays differ from the snapshot's")
			}
		}
	})
}

// deltaFuzzBase is FuzzCheckpointDelta's fixture: a c432 session's base
// checkpoint and a delta captured against it after three edit batches,
// one of them undone.
func deltaFuzzBase(tb testing.TB) (*Flow, *SessionSnapshot, *SessionDelta) {
	tb.Helper()
	ctx := context.Background()
	flow := DefaultFlow()
	g, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := flow.NewGraphSession(ctx, g)
	if err != nil {
		tb.Fatal(err)
	}
	base := s.CheckpointBase()
	for _, batch := range [][]Edit{
		{{Op: EditScaleDelay, Edge: 3, Scale: 2}, {Op: EditSetNominal, Edge: 10, Value: 42.5}},
		{{Op: EditScaleDelay, Edge: 3, Scale: 0.5}},
		{{Op: EditScaleDelay, Edge: 12, Scale: 4}},
	} {
		if _, err := s.Apply(ctx, batch); err != nil {
			tb.Fatal(err)
		}
	}
	d := s.CheckpointDelta()
	if d == nil || len(d.Slots) == 0 {
		tb.Fatal("fixture captured no delta")
	}
	return flow, base, d
}

// FuzzCheckpointDelta drives arbitrary bytes through the session-delta
// payload decoder (the JSON a delta checkpoint seals; the envelope
// checksum in front of it is FuzzSnapshotDecode's ground) and applies what
// it accepts to a valid base: neither step may panic, and a delta that
// restores must restore to a session whose re-snapshot is the base with
// the delta's slots patched in, and nothing else changed.
func FuzzCheckpointDelta(f *testing.F) {
	flow, base, d := deltaFuzzBase(f)
	valid, err := json.Marshal(d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(`{"mean_ps":1}`))
	baseDelays := bytes.Clone(base.Graph.Delays)
	rec := 4 + 8*(base.Graph.Globals+base.Graph.Components+2) // edge index + slot

	f.Fuzz(func(t *testing.T, data []byte) {
		var d SessionDelta
		if err := json.Unmarshal(data, &d); err != nil {
			return
		}
		patched, err := base.WithDelta(&d)
		if !bytes.Equal(base.Graph.Delays, baseDelays) {
			t.Fatal("applying a delta modified the base")
		}
		if err != nil {
			return
		}
		rs, err := flow.RestoreSession(context.Background(), patched)
		if err != nil {
			return
		}
		want := bytes.Clone(baseDelays)
		for off := 0; off < len(d.Slots); off += rec {
			ei := int(binary.LittleEndian.Uint32(d.Slots[off:]))
			copy(want[(rec-4)*ei:], d.Slots[off+4:off+rec])
		}
		if got := rs.Snapshot().Graph.Delays; !bytes.Equal(got, want) {
			t.Fatal("restored session's delays are not the base with the delta's slots")
		}
	})
}
