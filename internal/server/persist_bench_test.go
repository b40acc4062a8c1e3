package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
	"repro/ssta"
)

// Sinks keep the measured calls' results alive.
var (
	checkpointSink []byte
	snapshotSink   *ssta.SessionSnapshot
	graphSink      *ssta.Graph
	deltaSink      *ssta.SessionDelta
)

// BenchmarkCheckpoint measures the write-behind flusher on the session
// shapes of the session-ecos load: a flat c3540 and c7552 session and a
// hierarchical quad-c1355 one. Per shape, "encode" is one checkpoint
// snapshot + seal (it reports the checkpoint size as bytes) and "restore"
// is the warm-start path, decode plus RestoreSession (one full
// propagation). "snapshot/c7552" is Session.Snapshot alone, and
// "lock/c7552" the part of it that holds the session lock — a clone of
// the session graph — which is how long a full checkpoint blocks that
// session's requests; "lock/delta-c7552" is the same for a delta
// capture, after the edit batches below. "round" is one flush round of
// full checkpoints over eight dirty sessions — 3 × c7552, 3 × c3540,
// 2 × quad-c1355, as session-ecos keeps them — into an in-memory store;
// the flusher is one goroutine, so at -cpu 1 its ns/op is the round's CPU
// time. "delta/round" is the steady-state round over the same sessions
// once each has a durable base and has taken a few edit batches, some of
// them undone: every session writes a delta. Both rounds report the
// bytes they put.
func BenchmarkCheckpoint(b *testing.B) {
	ctx := context.Background()
	s := New(Config{Store: store.NewMem(), StoreFlushInterval: time.Hour})
	b.Cleanup(s.Close)
	shapes := []struct {
		name   string
		spec   ItemSpec
		copies int // sessions of this shape in the flush round
	}{
		{"c3540", ItemSpec{Bench: "c3540", Seed: 1}, 3},
		{"c7552", ItemSpec{Bench: "c7552", Seed: 1}, 3},
		{"quad-c1355", ItemSpec{Quad: &QuadSpec{Bench: "c1355", Seed: 1}}, 2},
	}
	regs := make(map[string]*srvSession)
	var round []string
	for _, sh := range shapes {
		sess, name, err := s.buildSession(ctx, &sh.spec)
		if err != nil {
			b.Fatal(err)
		}
		// Copies share one session: each encodes the same bytes as a
		// distinct session of the shape, without holding its memory.
		for i := 0; i < sh.copies; i++ {
			id := fmt.Sprintf("%s-%d", sh.name, i)
			reg, err := s.sessions.addID(id, name, sess)
			if err != nil {
				b.Fatal(err)
			}
			regs[sh.name] = reg
			round = append(round, id)
		}
	}

	for _, sh := range shapes {
		reg := regs[sh.name]
		b.Run("encode/"+sh.name, func(b *testing.B) {
			var data []byte
			for n := 0; n < b.N; n++ {
				var err error
				if data, _, err = encodeCheckpoint(reg, 1); err != nil {
					b.Fatal(err)
				}
			}
			checkpointSink = data
			b.ReportMetric(float64(len(data)), "bytes")
		})
		b.Run("restore/"+sh.name, func(b *testing.B) {
			data, _, err := encodeCheckpoint(reg, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cp, err := decodeCheckpoint(data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.flow.RestoreSession(ctx, cp.Session); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("snapshot/c7552", func(b *testing.B) {
		sess := regs["c7552"].sess
		for n := 0; n < b.N; n++ {
			snapshotSink = sess.Snapshot()
		}
	})
	b.Run("lock/c7552", func(b *testing.B) {
		g := regs["c7552"].sess.Graph()
		for n := 0; n < b.N; n++ {
			graphSink = g.Clone()
		}
	})
	// flushRounds runs b.N flush rounds over every session of the round
	// and reports the bytes they put; full forgets the durable bases
	// first, so each round writes full checkpoints.
	flushRounds := func(b *testing.B, full bool) {
		p := s.persist
		put := p.store.putBytes.Load()
		for n := 0; n < b.N; n++ {
			if full {
				clear(p.durable)
			}
			for _, id := range round {
				p.markDirty(id)
			}
			p.flush(ctx)
		}
		if p.pending() != 0 {
			b.Fatal("flush round left checkpoints pending")
		}
		b.ReportMetric(float64(p.store.putBytes.Load()-put)/float64(b.N), "put-bytes/round")
	}
	// edit makes every shape's session the same few changes since a new
	// delta base: flat sessions take four batches, two undone bit for bit,
	// and hierarchical ones three net-delay edits, one set back.
	edit := func(b *testing.B) {
		for _, sh := range shapes {
			sess := regs[sh.name].sess
			var batches [][]ssta.Edit
			if d := sess.Design(); d != nil {
				batches = [][]ssta.Edit{
					{{Op: ssta.EditSetNetDelay, Net: 0, Value: 5}, {Op: ssta.EditSetNetDelay, Net: 1, Value: 7}},
					{{Op: ssta.EditSetNetDelay, Net: 1, Value: d.Nets[1].Delay}},
				}
			} else {
				batches = [][]ssta.Edit{
					{{Op: ssta.EditScaleDelay, Edge: 10, Scale: 2}, {Op: ssta.EditScaleDelay, Edge: 200, Scale: 4}},
					{{Op: ssta.EditSetNominal, Edge: 1000, Value: 123.25}},
					{{Op: ssta.EditScaleDelay, Edge: 10, Scale: 0.5}, {Op: ssta.EditScaleDelay, Edge: 200, Scale: 0.25}},
					{{Op: ssta.EditSetNominal, Edge: 1500, Value: 77.5}, {Op: ssta.EditScaleDelay, Edge: 300, Scale: 2}},
				}
			}
			for _, batch := range batches {
				if _, err := sess.Apply(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("round", func(b *testing.B) { flushRounds(b, true) })
	b.Run("delta/round", func(b *testing.B) {
		// One full round makes the durable bases (copies of a shape share
		// its session, so they share its delta base too), then the edits.
		clear(s.persist.durable)
		for _, id := range round {
			s.persist.markDirty(id)
		}
		s.persist.flush(ctx)
		bases := s.persist.bases.Load()
		edit(b)
		b.ResetTimer()
		flushRounds(b, false)
		if n := s.persist.bases.Load() - bases; n != 0 {
			b.Fatalf("%d base checkpoints written in delta rounds, want none", n)
		}
	})
	b.Run("lock/delta-c7552", func(b *testing.B) {
		sess := regs["c7552"].sess
		sess.CheckpointBase()
		edit(b)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			deltaSink = sess.CheckpointDelta()
		}
		if deltaSink == nil || len(deltaSink.Slots) == 0 {
			b.Fatal("delta capture found no changed slots")
		}
	})
}
