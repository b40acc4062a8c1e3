package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/ssta"
)

// clusterBenchScens sizes the sweep; sharding targets wide scenario sets.
var clusterBenchScens = flag.Int("cluster-bench-scenarios", 32, "scenario count for BenchmarkClusterSweep")

// BenchmarkClusterSweep measures the cost of distribution itself: the same
// wide MCMM sweep (32 scenarios by default) against the hierarchical quad-c1355 design served
// standalone versus through a coordinator sharding across two localhost
// workers. On a single-CPU host the workers and the coordinator share one
// core, so the cluster arm can never be faster — the honest number is the
// coordination overhead (one HTTP exchange per shard, shard request and
// response encode/decode, result reassembly) on top of the same shard
// compute. The "rpc" sub-benchmark isolates one exchange through the pool:
// the health check, GET /healthz.
func BenchmarkClusterSweep(b *testing.B) {
	scens := make([]SweepScenarioSpec, *clusterBenchScens)
	for i := range scens {
		scens[i] = SweepScenarioSpec{ScenarioSpec: ssta.ScenarioSpec{
			Name: fmt.Sprintf("corner-%d", i), Derate: 1 + 0.02*float64(i),
		}}
	}
	body, err := json.Marshal(SweepRequest{
		ItemSpec:  ItemSpec{Quad: &QuadSpec{Bench: "c1355", Seed: 1}, Mode: "full"},
		Scenarios: scens,
	})
	if err != nil {
		b.Fatal(err)
	}

	fire := func(b *testing.B, url string) {
		r, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", r.StatusCode, data)
		}
	}

	run := func(b *testing.B, s *Server) {
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		fire(b, hs.URL) // warm graph/extract/prep caches in both arms
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			fire(b, hs.URL)
		}
	}

	b.Run("standalone", func(b *testing.B) {
		s := New(Config{})
		defer s.Close()
		run(b, s)
	})

	b.Run("cluster-2", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		addrs := make([]string, 2)
		for i := range addrs {
			w := New(Config{})
			defer w.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			go func() { _ = cluster.Serve(ctx, ln, w.WorkerService()) }()
			addrs[i] = ln.Addr().String()
		}
		pool := cluster.NewPool(cluster.PoolConfig{Addrs: addrs})
		s := New(Config{Cluster: pool})
		defer s.Close()
		deadline := time.Now().Add(5 * time.Second)
		for len(pool.Healthy()) < 2 {
			if time.Now().After(deadline) {
				b.Fatal("workers never became healthy")
			}
			time.Sleep(10 * time.Millisecond)
		}
		run(b, s)
	})

	// One HTTP exchange over a live keep-alive pool connection — the fixed
	// per-dispatch cost the coordinator pays per shard.
	b.Run("rpc", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := New(Config{})
		defer w.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() { _ = cluster.Serve(ctx, ln, w.WorkerService()) }()
		pool := cluster.NewPool(cluster.PoolConfig{Addrs: []string{ln.Addr().String()}})
		defer pool.Close()
		pool.Start(ctx)
		n := pool.Nodes()[0]
		deadline := time.Now().Add(5 * time.Second)
		for !n.Healthy() {
			if time.Now().After(deadline) {
				b.Fatal("worker never became healthy")
			}
			time.Sleep(10 * time.Millisecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pool.Do(ctx, n, cluster.PingMethod, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
