// Command sstaload is the repository's benchmark. It boots the real sstad
// daemon as child processes (standalone, or a coordinator with two
// workers), drives it with seeded open-loop traffic, checks every answer
// against an in-process oracle, and reports what a client sees: latency,
// capacity, CPU and memory per request, set-up time. A traced run adds a
// layer-by-layer breakdown measured from outside the daemon.
//
// # Running
//
// sstaload is a Go module of its own next to the repository's module (it
// imports the repository's packages through a replace directive), so it
// is built and run through run.sh, which keeps the Go build cache and all
// output under .bench_build/ at the repository root:
//
//	bash cmd/sstaload/run.sh                                  # all workloads, seed 1
//	bash cmd/sstaload/run.sh -workload sweep-wide -seed 3     # one workload
//	bash cmd/sstaload/run.sh -workload analyze-mix -trace 1   # traced run
//	bash cmd/sstaload/run.sh -compare base/ change/           # compare result sets
//
// From cmd/sstaload, "go run . -seed 1" does the same with the default
// build cache. Flags:
//
//	-workload list   comma-separated workloads (alias -workloads; default all)
//	-seed n          the request stream and arrival schedule derive from it
//	-seconds n       measured seconds per workload (default: run_seconds in
//	                 BENCHMARK.json)
//	-trace 0|1       1 runs the traced measurement instead of the untraced one
//	-compare A B     compare two sets of results files (directories or
//	                 comma-separated lists; see Comparing)
//	-out dir         logs, traces and results (<repo>/.bench_build/sstaload)
//	-results file    results file (<out>/results-s<seed>[-trace].json)
//
// Each workload prints its metrics with units; the results file holds
// them all with the host block; with a single workload the last line of
// standard output is one JSON object with the metrics BENCHMARK.json lists
// for the kind of run.
//
// The benchmark builds ./cmd/sstad once per invocation (not timed) and
// starts every daemon on a free loopback port. It stops and reaps every
// child on return, on SIGINT/SIGTERM and on panic; children also carry a
// parent-death signal. It needs Linux (/proc accounting, nanosleep,
// scheduling calls).
//
// # Load model
//
// The generator is one process with GOMAXPROCS = nproc and at most nproc
// keep-alive connections. An untraced run of a workload is:
//
//  1. Set-up, five times over: launch the processes, wait for /healthz
//     (and, for the cluster, two healthy workers at the coordinator), then
//     warm up: fill the graph, extract and prep caches and create the
//     sessions. setup_s is the median of the five; the last deployment
//     is measured.
//  2. Open loop for all but 6 s of -seconds: Poisson arrivals at the
//     workload's fixed rate, drawn from -seed. The request count is fixed
//     (rate x duration), so every phase has the samples its p99 needs
//     (at least 1200 at the default 26 s).
//     One dispatcher thread releases each request at its due time; it
//     runs at real-time priority (nice -10 without CAP_SYS_NICE) because
//     at normal priority the kernel lets it wait out a busy daemon
//     thread's slice, 2-4 ms on a 2-vCPU host. Latency runs from the due
//     time to the body read and checked, so a stall is charged to every
//     request queued behind it (no coordinated omission).
//  3. Closed loop for 6 s: every connection sends back to back, drawing
//     from the same generator.
//
// Daemons are stopped with SIGKILL: nothing reads their state afterwards.
//
// Every request carries timeout_ms (2000 for analyze and session
// requests, 5000 for sweeps), so a stall becomes a failure rather than a
// hang. A request fails on a transport error, a non-2xx status (408 and
// 429 included) or a wrong answer; failures count against the requests
// attempted and enter the percentiles as +Inf.
//
// A run is flagged invalid (reported, not hidden) when the dispatcher's
// p99 lag behind the schedule reaches 1 ms, or when any graph, extract or
// prep cache miss counter advances during the timed phases (steady state
// must be warm).
//
// # Workloads
//
// Rates are sized for a 2-vCPU host at about 17-25% server utilisation;
// on other hosts they stay fixed and the run warns. The headroom is for
// the host, not the daemon: on a shared host a core can run 40% slower
// for minutes, which doubles the daemon's CPU per request, and at the
// 30-40% utilisation first tried the open loops then queued so deeply
// (cluster-sweep p50 from 12 ms to 35-840 ms) that no rescaling could
// bring their latency back.
//
//	analyze-mix    standalone, sstad defaults (batching off). 300 req/s of
//	               single-item /v1/analyze: bench uniform over c432, c880,
//	               c1355, c1908, c3540, c7552, seed 1-3; 25% clocked, 5%
//	               extract (c432-c1908), 10% exact repeats of the previous
//	               request. 36 graphs, under the 64-entry graph cache.
//	               Exercises the front (decode, admission, coalescer,
//	               marshal) and the flat max/min passes plus sequential
//	               slack; hier, scenario and cluster do nothing. Clocked
//	               c7552 sets the p99. The bypass workload for sweep-level
//	               changes.
//	sweep-wide     standalone, defaults. 60 req/s of /v1/sweep on
//	               quad-c1355 seed 1, mode full, 8 fresh swap-free
//	               scenarios each (derate, cell/net scale, glob/loc/rand
//	               sigma drawn in [0.9, 1.1]), so requests never coalesce.
//	               One hier stitch and 8 rescale + propagation passes per
//	               request. Scenario-major sweeps and pass or kernel
//	               changes must show here; front changes should not. A
//	               sweep costs the daemon about 5.5 ms of CPU on the
//	               reference host, about half of it outside SweepAnalyze
//	               (decoding, marshalling, collecting the per-scenario
//	               delay banks), so 8 scenarios at 60 req/s (1200
//	               open-loop samples) keep a sixth of the host busy.
//	session-ecos   standalone, -store-dir (write-behind checkpointing on).
//	               200 req/s against 8 sessions created at set-up: 6 flat
//	               (c7552 and c3540, seeds 1-3) and 2 hier (quad-c1355
//	               seeds 1, 2). 60% edit batches of 1-4 scale_delay edits
//	               with power-of-two scales, each later undone; 10%
//	               swap_module of instance B between the seed-1 and seed-2
//	               c1355 modules; 30% GET /v1/sessions/{id}. Incremental
//	               cones, session locking, hier restitch and snapshot
//	               encoding; writes beside reads on the same sessions.
//	cluster-sweep  coordinator + 2 workers. 60 req/s of the sweep-wide
//	               request, a quarter streamed over SSE. Sharding, framed
//	               RPC, shard encode/decode and the per-worker stitch on top
//	               of what sweep-wide does: the two workloads differ only by
//	               the cluster.
//
// # End-to-end metrics
//
//	p50_ms          ms     open-loop latency median, due time to body checked
//	p99_ms          ms     open-loop 99th percentile (at least 10 samples beyond)
//	capacity_rps    req/s  successful requests per second in the closed loop
//	                       (median over its seconds)
//	error_ratio     ratio  failed / attempted over every phase and check
//	cpu_ms_per_req  ms     server utime+stime (/proc/<pid>/stat, all server
//	                       processes) over the open loop / requests completed
//	server_rss_mb   MiB    median resident set (VmRSS) of the server
//	                       processes, sampled every 100 ms over the timed
//	                       phases (the peak, VmHWM, is one GC-timed extreme
//	                       and varies by a third between runs)
//	setup_s         s      launch -> /healthz -> warm-up done, median of 5
//
// p50_ms, p99_ms, cpu_ms_per_req, capacity_rps and setup_s are reported at
// the reference host speed. On a shared host the speed of a core drifts by
// 10-40% over minutes, and every run's latency and CPU cost drift with it.
// While the set-ups, the open loop and the closed loop run, a probe thread
// executes a fixed unit of work (dependent floating-point arithmetic over a
// cache-resident array plus random reads over an 8 MiB one) every 20 ms
// and times it in thread CPU time. Each metric is rescaled by r^k, where
// r is 110 µs (the unit's time on the quiet reference host) over the
// median unit time of the phase the metric was measured in: times are
// multiplied by it, capacity divided. The unscaled values stay in the
// results file as raw.<name>, beside host.probe_setup_us, host.probe_us
// (open loop) and host.probe_closed_us. The powers are measured, not
// assumed: over 34 runs of the four workloads, the daemon's CPU per
// request and set-up time went as the probe time to the power 1.3-2.0
// (k = 2), and p50 latency and capacity, which add waiting for the two
// shared processors, as the power 2-3 (k = 2.5); rescaling cut the runs'
// spread two- to fourfold. The probe shares no code with the daemon, so a
// change to the daemon moves a rescaled metric as it moves the raw one.
//
// capacity_rps is the median, over the closed loop's whole seconds, of the
// requests completed successfully in that second, so the one second a
// daemon GC cycle or store flush lands in does not set it.
//
// BENCHMARK.json gates capacity_rps, cpu_ms_per_req, server_rss_mb and
// setup_s. p50_ms and p99_ms are printed, written and compared (-compare
// can find them improved) but not gated, because on a shared host they
// measure the host as much as the daemon. When the hypervisor takes 5-10%
// of the CPUs' time (the "steal" column of /proc/stat, which no CPU-time
// clock inside the guest sees, so no probe can rescale it away), the
// generator and the daemon stand still for milliseconds at a time; a
// sub-millisecond request that falls due in such a pause waits it out.
// Over ten seeds at such times, the spread of p50 (quartile distance over
// median) reached 0.63 on analyze-mix and 0.40 on session-ecos, and that
// of p99 0.3-0.9, against 0.03-0.12 for p50 in quiet hours; the largest
// bound BENCHMARK.json may set is 0.25. CPU time per request, which steal
// does not inflate, spread by at most 0.06 in the same runs. host.steal_pct
// and host.steal_closed_pct in the results file give the stolen share
// over the open and the closed loop.
//
// error_ratio is printed but not listed in BENCHMARK.json: it is 0 on a
// healthy run, and the harness reads failures from "failed" instead.
//
// # Traced run
//
// "-trace 1" measures per-layer metrics; end-to-end numbers always come
// from untraced runs. After one set-up it runs the workload's open loop
// for seconds-4, scraping /metrics of every server process before and
// after it. Every other request (odd sequence number) is traced: it
// carries X-Request-Id and gets a root span req.<workload> with
// net/http/httptrace children client.conn_wait (due -> connection),
// client.write, server.ttfb (request written -> first byte),
// client.read_body and client.check, which tile the root.
// trace_overhead_pct compares the traced requests' p50 with the untraced
// ones'; interleaved, the two halves see the same host (run as two phases
// one after the other, they differed by up to 20% either way).
//
// Then the daemon stops and an in-process replay calls each layer's public
// functions directly on the same inputs, with a span around every call
// (spans named replay.<package>.<function>/<subject>); each replay metric
// is the median over its calls.
//
// Spans are kept in memory and written at exit to <out>/<workload>/:
// trace.jsonl has one span per line, {"id", "parent" (0 for a root),
// "req" (request id), "name", "start_us", "end_us"} with times in
// microseconds since the run started; layers.json summarises each span
// name: count, busy_ms (summed duration), self_ms (duration not covered
// by child spans), mean_ms and p50_ms.
//
// # Per-layer metrics, and the end-to-end metric each should move
//
//	loadgen   sched_lag_p99_ms (validity: < 1 ms), conn_wait_p99_ms (the
//	          queue behind the connection cap -> p99_ms everywhere),
//	          cpu_ms_per_req (the generator's own CPU)
//	server    ttfb_p50_ms, read_body_p50_ms, front_overhead_ms (ttfb p50 of
//	          one request class - replay of its engine call),
//	          coalesce_hit_ratio, graph_cache_hit_ratio, rejected_ratio,
//	          item_latency_mean_ms, sweep_scenario_latency_mean_ms,
//	          reanalysis_latency_mean_ms (/metrics deltas)
//	          -> p50_ms, cpu_ms_per_req on analyze-mix; read_body -> p50_ms
//	          on cluster-sweep (SSE); no change expected on sweep-wide
//	ssta      analyze_ms.{c432,c1908,c7552,c7552-clk} (AnalyzeBatch, 1 item),
//	          sweep_ms.quad-c1355-{64,8} (SweepAnalyze),
//	          session_apply_us.flat, session_apply_ms.swap (Session.Apply)
//	          -> analyze-mix p50/p99, sweep-wide p50/capacity, session-ecos
//	          p50 (flat) and p99 (swap)
//	hier      prep_cold_ms.quad-c1355 (InvalidatePrep + AnalyzeCtx),
//	          stitch_ms.quad-c1355 (Design.Stitch, warm), swap_restitch_ms
//	          (hier.Session.SwapModule), prep_cache_hit_ratio (/metrics)
//	          -> stitch: sweep-wide and cluster-sweep p50 (one per request,
//	          one per worker shard); prep_cold: setup_s; swap: session-ecos p99
//	scenario  sweep_graph_ms.64 (SweepGraph on the stitched top),
//	          per_scenario_us, rescale_us (per_scenario - arrivals_over)
//	          -> sweep-wide capacity and p50, cluster-sweep p50; none on
//	          analyze-mix
//	timing    max_pass_ms.{c432,c1908,c7552,quad-c1355} (MaxDelayCtx),
//	          min_pass_ms.{c1908-clk,c7552-clk} (Pass.ArrivalsMin),
//	          seq_slacks_ms.{c1908-clk,c7552-clk} (SequentialSlacks),
//	          arrivals_over_us.quad-c1355, inc_update_us and
//	          inc_recomputed_verts (Incremental.Update)
//	          -> max/min/seq: analyze-mix p50/p99 (clocked c7552 is the
//	          tail); arrivals_over: sweep-wide; inc: session-ecos p50
//	canon     {max,min,add}_views_ns.{flat,quad} (kernel loop at the c7552
//	          and quad-top spaces), {max,add}_ops_per_pass.{c7552,quad-c1355}
//	          (counted from graph structure), kernel_share.{c7552,quad-c1355}
//	          (ops x ns / measured pass: near 1 means kernel-bound, low
//	          means gather-bound) -> cpu_ms_per_req on sweep-wide, analyze-mix
//	core      extract_ms.{c432,c1355,c1908} (Flow.Extract, uncached),
//	          extract_cache_hit_ratio (/metrics) -> setup_s everywhere
//	cluster   rpc_rtt_us (Pool.Do ping against a live in-process worker),
//	          dispatches_per_req, retries, failovers, local_fallbacks (0 in
//	          a healthy run), remote_cache_hit_ratio (since boot),
//	          overhead_ms (cluster-sweep sync ttfb p50 - replay
//	          SweepAnalyze(8)) -> cluster-sweep p50, cpu_ms_per_req
//	store     put_ops, put_errors, flush_lag_max_s (/metrics)
//	          -> session-ecos cpu_ms_per_req
//
// Metrics that are zero, constant or only defined on one workload (hit
// ratios, counts, store and cluster counters) are printed and written to
// the results file but left out of BENCHMARK.json's per_layer list, which
// a harness expects on every traced run.
//
// # Checks
//
// analyze-mix answers are compared inline with a table the oracle
// precomputes (same library calls: BenchGraph/ClockedBenchGraph,
// AnalyzeBatch, Extract) at 1e-9 relative. Sweeps are checked inline for
// completeness, and a deterministic 1-in-16 sample is re-run in-process
// (QuadDesignGap, SweepAnalyze) after the phase, outside the timed window,
// at 1e-5: model extraction is not reproducible run to run (its merges
// follow Go map iteration order), so the oracle's model and the daemon's
// differ by up to about 1.5e-6 in the quad design's sigma. session-ecos
// checks creation means against the oracle, then at the end undoes every
// outstanding scale and swaps instance B back: each session's mean must
// equal its creation mean at 1e-9. A mismatch is a failed operation and
// is named in the output.
//
// # Comparing
//
// "-compare A B" reads two sets of results files (A the parent, B the
// change; runs paired in file order) and prints, per workload and metric,
// each side's median and quartiles and the pairs B won. Every end-to-end
// metric gets a verdict against its BENCHMARK.json bound: improved (B wins
// at least 9 in 10 pairs and the medians differ by more than A's
// quartile spread), regressed (B's median worse by more than the bound),
// unresolved (A's own spread exceeds the bound, unless every B run beats
// every A run) or unchanged. error_ratio, which BENCHMARK.json cannot list
// (it is 0 on a healthy run), is compared with a bound of 0; p50_ms and
// p99_ms, which it does not gate, can only be found improved. A set is made
// by naming each run's results file, for example
//
//	for s in 1 2 3 4 5 6 7 8 9 10; do
//	  bash cmd/sstaload/run.sh -workload sweep-wide -seed $s -results base/s$s.json
//	done
//
// # Baseline
//
// Medians [first, third quartile] over ten untraced runs per workload
// (seeds 11-20, 26 s each), at the reference host speed. Host: Intel Xeon
// (family 6, model 143), 2 vCPUs of a shared KVM guest, nproc 2,
// GOMAXPROCS 2, go1.24.0. The host was busy: the probe unit took a median
// 145-157 µs against its 110 µs reference, and the hypervisor stole a
// median 0.6-2% of the CPUs' time. error_ratio was 0 in every run, and
// every oracle check passed.
//
//	workload       p50_ms              p99_ms             capacity_rps      cpu_ms_per_req     server_rss_mb     setup_s
//	analyze-mix    0.831 [0.770 0.866] 11.1 [10.8 12.1]   1758 [1720 1823]  1.18 [1.17 1.21]   335 [329 343]     1.15 [1.14 1.19]
//	sweep-wide     4.79 [4.56 4.92]    12.7 [10.8 13.6]   427 [411 444]     5.75 [5.66 5.88]   18.1 [17.8 18.3]  0.123 [0.117 0.127]
//	session-ecos   0.897 [0.848 0.930] 8.03 [7.13 9.27]   1749 [1705 1791]  2.72 [2.65 2.79]   285 [282 292]     0.295 [0.281 0.301]
//	cluster-sweep  7.28 [6.97 7.63]    25.5 [22.2 31.6]   284 [267 294]     8.14 [7.91 8.27]   49.1 [48.8 49.4]  0.148 [0.137 0.156]
//
// The open loops held 6000, 1200, 4000 and 1200 requests. BENCHMARK.json's
// bounds follow from these runs and two more sets of ten (seeds 1-10
// before them, 21-30 after): over the three sets, the quartile spread
// over median of each gated metric stayed within 0.18 for capacity_rps,
// 0.11 for cpu_ms_per_req, 0.07 for server_rss_mb and 0.15 for setup_s,
// and the sets' medians differed by at most 15%, 4%, 3% and 8%. The
// bounds are 0.25, 0.2, 0.2 and 0.25.
//
// BENCHMARK.json supersedes the free-form BENCH_2.json to BENCH_7.json,
// which were recorded on one vCPU, as the reference for performance.
package main
