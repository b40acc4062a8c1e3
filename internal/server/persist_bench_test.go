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
)

// BenchmarkCheckpoint measures the write-behind flusher on the session
// shapes of the session-ecos load: a flat c3540 and c7552 session and a
// hierarchical quad-c1355 one. Per shape, "encode" is one checkpoint
// snapshot + seal (it reports the checkpoint size as bytes) and "restore"
// is the warm-start path, decode plus RestoreSession (one full
// propagation). "snapshot/c7552" is Session.Snapshot alone, and
// "lock/c7552" the part of it that holds the session lock — a clone of
// the session graph — which is how long a checkpoint blocks that
// session's requests. "round" is one flush round over eight dirty
// sessions — 3 × c7552, 3 × c3540, 2 × quad-c1355, as session-ecos keeps
// them — into an in-memory store; the flusher is one goroutine, so at
// -cpu 1 its ns/op is the round's CPU time.
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
				if data, err = encodeCheckpoint(reg); err != nil {
					b.Fatal(err)
				}
			}
			checkpointSink = data
			b.ReportMetric(float64(len(data)), "bytes")
		})
		b.Run("restore/"+sh.name, func(b *testing.B) {
			data, err := encodeCheckpoint(reg)
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
	b.Run("round", func(b *testing.B) {
		p := s.persist
		for n := 0; n < b.N; n++ {
			for _, id := range round {
				p.markDirty(id)
			}
			p.flush(ctx)
		}
		if p.pending() != 0 {
			b.Fatal("flush round left checkpoints pending")
		}
	})
}
