package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

// inProcess serves a workload's layout from server.New handlers in this
// process: no child processes, same API.
func inProcess(t *testing.T, w *workload) (*deployment, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var closers []func()
	d := &deployment{cleanup: func() {
		cancel()
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
	serve := func(cfg server.Config) *server.Server {
		srv := server.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		closers = append(closers, srv.Close, ts.Close)
		d.metrics = append(d.metrics, ts.URL+"/metrics")
		d.base = ts.URL
		return srv
	}
	if !w.cluster {
		cfg := server.Config{}
		if w.store {
			cfg.Store = store.NewMem()
		}
		serve(cfg)
		return d, nil
	}
	var addrs []string
	for k := 0; k < 2; k++ {
		srv := serve(server.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.stop()
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- cluster.Serve(ctx, ln, srv.WorkerService()) }()
		closers = append(closers, func() { <-done })
		addrs = append(addrs, ln.Addr().String())
	}
	workerMetrics := d.metrics
	d.metrics = nil
	serve(server.Config{Cluster: cluster.NewPool(cluster.PoolConfig{Addrs: addrs})})
	d.metrics = append(d.metrics, workerMetrics...)
	never := make(chan struct{})
	if err := waitHealthy(ctx, &http.Client{Timeout: time.Second}, d.base, true, never, func(p string) error {
		return &net.OpError{Op: "coordinator " + p}
	}); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// Each workload's generator, checks and after-phase oracle run for about
// a second against in-process servers and see no failed operation.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			cfg := &runCfg{seed: 1, conns: 2}
			s, err := boot(ctx, cfg, w, 1, func(int) (*deployment, error) { return inProcess(t, w) })
			if err != nil {
				t.Fatal(err)
			}
			defer s.dep.stop()
			before, err := s.scrape(ctx)
			if err != nil {
				t.Fatal(err)
			}
			outs := s.lc.openLoop(ctx, plan(s.sched, s.gen, w.rate, time.Second), cfg.conns, keepSample)
			after, err := s.scrape(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			tl.add(outs)
			s.finish(ctx, &tl, outs)
			if tl.failed != 0 || tl.attempted < len(outs) {
				t.Fatalf("%d of %d operations failed: %v %v", tl.failed, tl.attempted, tl.failures, tl.examples)
			}
			if cold := coldMisses(before, after); len(cold) != 0 {
				t.Errorf("caches not warm after set-up: %v", cold)
			}
		})
	}
}
