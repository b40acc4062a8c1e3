package ssta

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/timing"
)

// Session persistence (ROADMAP item 5a): a SessionSnapshot is the complete
// durable state of an analysis session — the timing graph with its full
// edit history baked in (tombstones, restored topological order), the
// active MCMM sweep's scenarios and options, and the criticality-tracking
// enablement. Encode seals it in a checksummed, versioned store envelope;
// RestoreSession rebuilds a live session from it, paying one full
// propagation (which reproduces the incrementally maintained delay at
// propagation tolerance, by the engine's 1e-12 equivalence contract).
// The graph's edge delays travel as one packed float64 blob (see
// timing.GraphSnapshot.Delays), which is what format version 2 changed:
// a version-1 snapshot, with per-edge JSON delay fields, is version skew
// and is not read.
//
// A checkpointing caller need not re-snapshot a session whose edits only
// moved edge delays. CheckpointBase takes a full snapshot and marks it as
// the base; CheckpointDelta then captures a SessionDelta — the current
// mean and the packed delay slots that differ bit for bit from the base,
// copied under the session lock without cloning the graph — and returns
// nil once anything a delta cannot carry has changed since the base (an
// added or removed edge, retargeted ports, a module swap's recommitted
// graph, the sweep or criticality settings), so the caller takes a fresh
// base. Restore is WithDelta, which patches the slots into the base's
// delay blob, then RestoreSession, so a patched slot passes the same
// checks as any other and the mean cross-check runs against the delta's
// mean.
//
// Hierarchical sessions snapshot their stitched top graph and restore as
// flat sessions: the graph, delays and sweep are preserved exactly, while
// design-structure edits (set_net_delay, swap_module) are no longer
// available on the restored session.

// SessionSnapshotKind and SessionSnapshotVersion identify a sealed session
// snapshot (see internal/store's envelope).
const (
	SessionSnapshotKind    = "ssta-session"
	SessionSnapshotVersion = 2
)

// SweepSnapshot is the durable state of a session's active MCMM sweep.
type SweepSnapshot struct {
	Scenarios []scenario.Spec `json:"scenarios"`
	Workers   int             `json:"workers,omitempty"`
	TopK      int             `json:"top_k,omitempty"`
	Quantile  float64         `json:"quantile,omitempty"`
}

// CritSnapshot is the durable state of a session's criticality tracking.
type CritSnapshot struct {
	Workers     int     `json:"workers,omitempty"`
	ScreenDelta float64 `json:"screen_delta,omitempty"`
}

// SessionSnapshot is the complete durable state of a Session.
type SessionSnapshot struct {
	// Hier records that the snapshot came from a hierarchical session (it
	// restores flat; see the file comment).
	Hier  bool                  `json:"hier,omitempty"`
	Graph *timing.GraphSnapshot `json:"graph"`
	Sweep *SweepSnapshot        `json:"sweep,omitempty"`
	Crit  *CritSnapshot         `json:"crit,omitempty"`
	// MeanPS is the mean circuit delay at snapshot time — an end-to-end
	// integrity cross-check on restore, over and above the envelope
	// checksum: it catches a snapshot that decodes cleanly but propagates
	// to a different answer. It is always written, so a snapshot missing
	// it restores only if its graph propagates to a zero mean.
	MeanPS float64 `json:"mean_ps"`
}

// Snapshot captures the session's durable state. The session lock is held
// only to clone the graph (O(V+E), sharing the immutable delay forms) and
// to read the sweep and criticality settings; the graph snapshot, whose
// delay packing is proportional to E·stride, is taken from the clone after
// the lock is released, so a checkpoint does not stall the session's
// requests for its whole duration.
func (s *Session) Snapshot() *SessionSnapshot {
	snap, g := s.snapshotLocked(false)
	snap.Graph = g.Snapshot()
	return snap
}

// CheckpointBase is Snapshot that also makes the snapshot the base later
// CheckpointDelta calls capture their changes against.
func (s *Session) CheckpointBase() *SessionSnapshot {
	snap, g := s.snapshotLocked(true)
	snap.Graph = g.Snapshot()
	return snap
}

// snapshotLocked is the part of Snapshot that runs under the session lock;
// mark makes the snapshot the delta base.
func (s *Session) snapshotLocked(mark bool) (*SessionSnapshot, *Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mark {
		s.graph.MarkBase()
		s.baseGen = s.gen
	}
	snap := &SessionSnapshot{Hier: s.hs != nil}
	if s.delay != nil {
		snap.MeanPS = s.delay.Mean()
	}
	if s.sweep != nil {
		sw := &SweepSnapshot{
			Workers:  s.sweep.opt.Workers,
			TopK:     s.sweep.opt.TopK,
			Quantile: s.sweep.opt.Quantile,
		}
		for _, sc := range s.sweep.scens {
			// Session sweeps never carry swaps (SetSweep normalizes with
			// allowSwaps=false), so SpecOf cannot fail here.
			sp, err := scenario.SpecOf(sc)
			if err != nil {
				continue
			}
			sw.Scenarios = append(sw.Scenarios, sp)
		}
		snap.Sweep = sw
	}
	if s.critOn {
		snap.Crit = &CritSnapshot{Workers: s.critOpt.Workers, ScreenDelta: s.critOpt.ScreenDelta}
	}
	return snap, s.graph.Clone()
}

// SessionDelta is a session's durable change since its last
// CheckpointBase, when only edge delays changed: the snapshot a
// CheckpointBase would take now is the base with Slots patched in and
// MeanPS in place of the base's. Callers seal it with their own
// bookkeeping (the server's delta checkpoint embeds it).
type SessionDelta struct {
	// MeanPS is the mean circuit delay at capture time, the restore's
	// cross-check (see SessionSnapshot.MeanPS).
	MeanPS float64 `json:"mean_ps"`
	// Slots packs the delay slot of every edge that differs bit for bit
	// from the base, in ascending edge order: the edge index as a
	// little-endian uint32, then Stride() little-endian float64s in the
	// canon.View layout (see timing.Graph.AppendDelta).
	Slots []byte `json:"slots,omitempty"`
}

// CheckpointDelta captures the session's delta against its last
// CheckpointBase. It copies only the changed slots, under the session
// lock, and returns nil when there is no base or a delta cannot carry the
// change (see the file comment): the caller then takes a new base.
func (s *Session) CheckpointDelta() *SessionDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != s.baseGen {
		return nil
	}
	slots, ok := s.graph.AppendDelta(nil)
	if !ok {
		return nil
	}
	d := &SessionDelta{Slots: slots}
	if s.delay != nil {
		d.MeanPS = s.delay.Mean()
	}
	return d
}

// WithDelta returns the snapshot d describes: a copy of snap, the base d
// was captured against, with d's slots patched into its delay blob and
// d's mean. Slot framing is checked here; the values are checked by
// RestoreSession like every other slot. snap is not modified.
func (snap *SessionSnapshot) WithDelta(d *SessionDelta) (*SessionSnapshot, error) {
	if snap.Graph == nil {
		return nil, errors.New("ssta: session snapshot has no graph")
	}
	g, err := snap.Graph.PatchDelays(d.Slots)
	if err != nil {
		return nil, fmt.Errorf("ssta: apply session delta: %w", err)
	}
	out := *snap
	out.Graph, out.MeanPS = g, d.MeanPS
	return &out, nil
}

// AppendJSON appends the JSON encoding of snap to dst: the bytes
// json.Marshal(snap) gives, with the graph written by
// timing.GraphSnapshot.AppendJSON so that no multi-megabyte buffer is left
// in encoding/json's pool.
func (snap *SessionSnapshot) AppendJSON(dst []byte) ([]byte, error) {
	rest := *snap
	rest.Graph = nil
	head, err := json.Marshal(&rest)
	if err != nil || snap.Graph == nil {
		return append(dst, head...), err
	}
	// Only the hier bool can come before the graph, so the first match is
	// its field.
	const hole = `"graph":null`
	at := bytes.Index(head, []byte(hole))
	if at < 0 {
		return dst, fmt.Errorf("ssta: session snapshot remainder %.40q has no graph field", head)
	}
	dst = append(dst, head[:at+len(hole)-len("null")]...)
	if dst, err = snap.Graph.AppendJSON(dst); err != nil {
		return dst, err
	}
	return append(dst, head[at+len(hole):]...), nil
}

// Encode seals the snapshot in a checksummed store envelope, written in
// place in front of the payload.
func (snap *SessionSnapshot) Encode() ([]byte, error) {
	payload, err := snap.AppendJSON(make([]byte, store.HeaderRoom(SessionSnapshotKind)))
	if err != nil {
		return nil, fmt.Errorf("ssta: encode session snapshot: %w", err)
	}
	return store.SealReserved(SessionSnapshotKind, SessionSnapshotVersion, payload), nil
}

// DecodeSessionSnapshot opens and decodes a sealed session snapshot.
// Envelope and payload failures surface as store.ErrCorrupt (or
// store.ErrVersion for kind/version skew) so callers quarantine instead of
// aborting a warm start.
func DecodeSessionSnapshot(data []byte) (*SessionSnapshot, error) {
	payload, err := store.OpenKind(data, SessionSnapshotKind, SessionSnapshotVersion)
	if err != nil {
		return nil, err
	}
	var snap SessionSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("%w: session payload: %v", store.ErrCorrupt, err)
	}
	return &snap, nil
}

// RestoreSession rebuilds a live session from a snapshot: the graph is
// reconstructed and validated, fully propagated once, cross-checked
// against the snapshot's recorded mean delay, and the sweep and
// criticality tracking are re-established with their snapshotted options.
func (f *Flow) RestoreSession(ctx context.Context, snap *SessionSnapshot) (*Session, error) {
	if snap == nil || snap.Graph == nil {
		return nil, errors.New("ssta: session snapshot has no graph")
	}
	g, err := timing.FromSnapshot(snap.Graph)
	if err != nil {
		return nil, fmt.Errorf("ssta: restore session graph: %w", err)
	}
	inc, err := g.NewIncrementalCtx(ctx)
	if err != nil {
		return nil, err
	}
	delay, err := inc.MaxDelay()
	if err != nil {
		return nil, err
	}
	// Written as "not within" so a NaN on either side fails the check.
	if m := delay.Mean(); !(math.Abs(m-snap.MeanPS) <= 1e-6*(1+math.Abs(snap.MeanPS))) {
		return nil, fmt.Errorf("ssta: restored session delay %.9g ps disagrees with checkpointed %.9g ps", m, snap.MeanPS)
	}
	s := &Session{graph: g, inc: inc, delay: delay, restoredFlat: snap.Hier}
	if snap.Sweep != nil {
		scens := make([]Scenario, len(snap.Sweep.Scenarios))
		for i, sp := range snap.Sweep.Scenarios {
			scens[i] = sp.Scenario()
		}
		opt := SweepOptions{
			Workers:  snap.Sweep.Workers,
			TopK:     snap.Sweep.TopK,
			Quantile: snap.Sweep.Quantile,
		}
		if _, err := s.SetSweep(ctx, scens, opt); err != nil {
			return nil, fmt.Errorf("ssta: restore session sweep: %w", err)
		}
	}
	if snap.Crit != nil {
		opt := CriticalityOptions{Workers: snap.Crit.Workers, ScreenDelta: snap.Crit.ScreenDelta}
		if _, err := s.EnableCriticality(ctx, opt); err != nil {
			return nil, fmt.Errorf("ssta: restore session criticality: %w", err)
		}
	}
	return s, nil
}

// DecodeModelSnapshot re-exports the extracted-model snapshot decoder
// (models seal with (*Model).EncodeSnapshot).
var DecodeModelSnapshot = core.DecodeModelSnapshot
