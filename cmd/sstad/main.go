// Command sstad is the long-running statistical static timing analysis
// service: the ssta batch/cache engine behind an HTTP/JSON API. It accepts
// generated benchmarks, inline .bench netlists, array multipliers and
// hierarchical quad designs, runs them on a bounded job queue with
// per-request deadlines, and exposes health and metrics endpoints.
//
// Usage:
//
//	go run ./cmd/sstad -addr :8080 -concurrency 2 -cache-entries 256
//
// Distributed serving (one binary, three roles):
//
//	sstad -role worker -addr :8081 -rpc-listen :9091
//	sstad -role worker -addr :8082 -rpc-listen :9092
//	sstad -role coordinator -addr :8080 -nodes localhost:9091,localhost:9092
//
// The coordinator answers the public API and shards sweep and micro-batch
// executions across its worker pool, with consistent-hash session affinity
// and automatic local fallback when no worker is healthy. It talks plain
// HTTP to each worker's -rpc-listen address: shards are POST /v1/sweep,
// session requests are reverse-proxied, and extracted models are pushed
// with PUT /cluster/models/{key}. -rpc-listen trusts its callers (a
// session create may pick its own id there, and models may be seeded), so
// expose it to the coordinator only; -addr serves the public API.
//
// Endpoints (see internal/server for the wire schema):
//
//	POST /v1/analyze             synchronous batch analysis
//	POST /v1/sweep               MCMM multi-scenario sweep with shared prep
//	POST /v1/jobs                asynchronous submit; GET/DELETE /v1/jobs/{id}
//	POST /v1/sessions            create an incremental timing session
//	POST /v1/sessions/{id}/edits apply an edit batch, re-analyzed incrementally
//	GET/DELETE /v1/sessions/{id} inspect / drop a session
//	GET  /healthz                liveness probe
//	GET  /metrics                Prometheus text metrics
//
// Example:
//
//	curl -s localhost:8080/v1/analyze -d '{"items":[{"bench":"c432","seed":1}]}'
//	curl -s localhost:8080/v1/analyze -d '{"items":[{"bench":"c432","seed":1,"clocked":true}]}'
//	curl -s localhost:8080/v1/sweep -d '{"bench":"c432","seed":1,
//	    "scenarios":[{"name":"unit"},{"name":"hot","derate":1.15}]}'
//	curl -s localhost:8080/v1/sweep -d '{"bench":"c432","seed":1,"clocked":true,
//	    "scenarios":[{"name":"fast","clock_period_ps":420,"clock_jitter_ps":12}]}'
//	curl -s localhost:8080/v1/sessions -d '{"bench":"c432","seed":1}'
//	curl -s localhost:8080/v1/sessions/sess-1/edits \
//	    -d '{"edits":[{"op":"scale_delay","edge":5,"scale":1.2}]}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
	"repro/ssta"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 2, "analyses running at once (sync + jobs)")
	workers := flag.Int("workers", 1, "default per-batch item workers when the request sets none")
	queueDepth := flag.Int("queue", 64, "async job queue depth")
	jobWorkers := flag.Int("job-workers", 1, "goroutines draining the job queue")
	cacheEntries := flag.Int("cache-entries", 256, "extraction-cache entry cap (0: unbounded)")
	cacheCost := flag.Int64("cache-bytes", 0, "extraction-cache cost budget in bytes (0: unbounded)")
	graphEntries := flag.Int("graph-cache-entries", 64, "built-graph and quad-design cache entry cap, each")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "upper clamp on client-requested deadlines")
	maxItems := flag.Int("max-items", 256, "maximum items per request")
	maxSessions := flag.Int("max-sessions", 64, "maximum live timing sessions")
	sessionTTL := flag.Duration("session-ttl", 15*time.Minute, "idle timing sessions are evicted after this")
	scenarios := flag.String("scenarios", "", "default MCMM scenario set for /v1/sweep requests that name none: JSON array (inline or @file)")
	batchWindow := flag.Duration("batch-window", 0, "micro-batch gathering window for compatible analyze/sweep requests (0: batching off; coalescing of identical requests is always on)")
	batchMax := flag.Int("batch-max", 8, "micro-batch size that flushes a gathering batch before its window expires")
	storeDir := flag.String("store-dir", "", "durable-state directory: sessions and extracted models are checkpointed here and restored at boot (empty: in-memory only)")
	storeFlush := flag.Duration("store-flush-interval", time.Second, "write-behind checkpoint flush interval")
	storeSync := flag.Bool("store-sync", false, "fsync durable-state writes (slower, survives power loss)")
	role := flag.String("role", "standalone", "serving role: standalone, coordinator (shards sweeps across -nodes) or worker (serves its coordinator on -rpc-listen)")
	nodes := flag.String("nodes", "", "coordinator only: comma-separated worker -rpc-listen addresses (host:port,...)")
	rpcListen := flag.String("rpc-listen", ":9090", "worker only: listen address for the coordinator: the HTTP API plus coordinator-only routes (trusted; do not expose publicly)")
	flag.Parse()

	// Decode and validate the default scenario set at startup so a bad
	// operator config fails the boot, not the first sweep request. The set
	// may carry module swaps; those are materialized per request.
	var defaultScens []server.SweepScenarioSpec
	if *scenarios != "" {
		fail := func(err error) {
			fmt.Fprintf(os.Stderr, "sstad: -scenarios: %v\n", err)
			os.Exit(2)
		}
		raw, err := ssta.ScenarioFlagBytes(*scenarios)
		if err != nil {
			fail(err)
		}
		if err := json.Unmarshal(raw, &defaultScens); err != nil {
			fail(err)
		}
		for _, sp := range defaultScens {
			sc := sp.Scenario()
			if err := sc.Validate(); err != nil {
				fail(err)
			}
		}
	}

	var backend store.Backend
	if *storeDir != "" {
		fs, err := store.NewFS(*storeDir, *storeSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sstad: -store-dir: %v\n", err)
			os.Exit(2)
		}
		backend = fs
	}

	// Cluster topology. One binary serves all three roles: a coordinator
	// answers the public API and shards sweep/batch executions across its
	// worker pool; a worker additionally serves its coordinator over HTTP on
	// -rpc-listen; standalone is the default single-process mode.
	var pool *cluster.Pool
	switch *role {
	case "standalone", "worker":
		if *nodes != "" {
			fmt.Fprintf(os.Stderr, "sstad: -nodes requires -role coordinator\n")
			os.Exit(2)
		}
	case "coordinator":
		addrs := strings.Split(*nodes, ",")
		var clean []string
		for _, a := range addrs {
			if a = strings.TrimSpace(a); a != "" {
				clean = append(clean, a)
			}
		}
		if len(clean) == 0 {
			fmt.Fprintf(os.Stderr, "sstad: -role coordinator needs at least one -nodes address\n")
			os.Exit(2)
		}
		pool = cluster.NewPool(cluster.PoolConfig{Addrs: clean})
	default:
		fmt.Fprintf(os.Stderr, "sstad: unknown -role %q (standalone, coordinator or worker)\n", *role)
		os.Exit(2)
	}

	flow := ssta.DefaultFlow()
	flow.Cache = ssta.NewExtractCacheSized(*cacheEntries, *cacheCost)
	srv := server.New(server.Config{
		Flow:               flow,
		MaxConcurrent:      *concurrency,
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		JobWorkers:         *jobWorkers,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MaxItems:           *maxItems,
		GraphCacheEntries:  *graphEntries,
		MaxSessions:        *maxSessions,
		SessionTTL:         *sessionTTL,
		DefaultScenarios:   defaultScens,
		BatchWindow:        *batchWindow,
		BatchMax:           *batchMax,
		Store:              backend,
		StoreFlushInterval: *storeFlush,
		Cluster:            pool,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *role == "worker" {
		ln, err := net.Listen("tcp", *rpcListen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sstad: -rpc-listen: %v\n", err)
			os.Exit(2)
		}
		go func() {
			if err := cluster.Serve(ctx, ln, srv.WorkerService()); err != nil && ctx.Err() == nil {
				log.Printf("sstad: coordinator listener: %v", err)
			}
		}()
		log.Printf("sstad worker serving its coordinator on %s", ln.Addr())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("sstad listening on %s (role %s, concurrency %d, queue %d, cache %d entries)",
		*addr, *role, *concurrency, *queueDepth, *cacheEntries)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "sstad: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Printf("sstad shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("sstad: shutdown: %v", err)
		}
		srv.Close()
	}
}
