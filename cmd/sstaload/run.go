package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/ssta"
)

// runCfg is one invocation's settings.
type runCfg struct {
	repo, out, bin string
	seed           int64
	seconds        int
	trace          bool
	conns          int
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's outcome, as written to the results file.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Valid     bool   `json:"valid"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures counts failed operations by kind; Examples holds the
	// detail of the first failure of each kind.
	Failures map[string]int    `json:"failures,omitempty"`
	Examples map[string]string `json:"failure_examples,omitempty"`
	// Notes explain why a run is invalid (generator lag, cold caches).
	Notes []string `json:"notes,omitempty"`
	// Phases counts the requests of each phase.
	Phases  map[string]int         `json:"phases"`
	Metrics map[string]metricValue `json:"metrics"`
}

// e2eNames are the end-to-end metrics every untraced run reports.
var e2eNames = []string{"p50_ms", "p99_ms", "capacity_rps", "error_ratio", "cpu_ms_per_req", "server_rss_mb", "setup_s"}

// unitOf derives a metric's unit from its name: the suffix of the metric
// segment (the part after the layer prefix, before any subject).
func unitOf(name string) string {
	seg := name
	if parts := strings.Split(name, "."); len(parts) > 1 {
		seg = parts[1]
	}
	switch {
	case seg == "capacity_rps":
		return "req/s"
	case strings.HasSuffix(seg, "_ms"), strings.HasSuffix(seg, "_ms_per_req"):
		return "ms"
	case strings.HasSuffix(seg, "_us"):
		return "us"
	case strings.HasSuffix(seg, "_ns"):
		return "ns"
	case strings.HasSuffix(seg, "_pct"):
		return "%"
	case strings.HasSuffix(seg, "_mb"):
		return "MiB"
	case strings.HasSuffix(seg, "_s"):
		return "s"
	case strings.HasSuffix(seg, "_ratio"), strings.HasSuffix(seg, "_share"):
		return "ratio"
	}
	return "count"
}

// tally accumulates attempted and failed operations, counting failures by
// kind and keeping the first detail of each kind.
type tally struct {
	attempted, failed int
	wrong             bool
	failures          map[string]int
	examples          map[string]string
}

func (t *tally) add(outs []outcome) {
	for i := range outs {
		t.attempted++
		if !outs[i].ok {
			t.fail(outs[i].fail)
		}
	}
}

func (t *tally) fail(f failure) {
	t.failed++
	t.wrong = t.wrong || f.wrong
	if t.failures == nil {
		t.failures, t.examples = map[string]int{}, map[string]string{}
	}
	if t.failures[f.kind] == 0 {
		t.examples[f.kind] = f.detail
	}
	t.failures[f.kind]++
}

// target is one booted and warmed deployment plus the workload's state.
type target struct {
	w      *workload
	st     *state
	dep    *deployment
	a      *api
	lc     *loadClient
	gen    *syncGen
	sched  *rand.Rand
	setups []float64 // seconds
	// setupHost is what the host probe saw over the set-ups.
	setupHost phaseHost
}

// deployFunc boots set-up number k of a workload's server layout.
type deployFunc func(k int) (*deployment, error)

// childDeploy boots the workload's layout as sstad child processes.
func childDeploy(ctx context.Context, cfg *runCfg, w *workload) deployFunc {
	return func(k int) (*deployment, error) {
		return deploy(ctx, cfg.bin, filepath.Join(cfg.out, w.name, fmt.Sprintf("setup%d", k)), w)
	}
}

// boot prepares the oracle, then boots and warms the deployment setups
// times (timing each from launch to warm), keeping the last one running.
func boot(ctx context.Context, cfg *runCfg, w *workload, setups int, deployK deployFunc) (*target, error) {
	// The oracle's flow (its graphs and extracted models) is dropped once
	// the tables are computed: a large live heap would make every GC cycle
	// of this process long enough to delay the open-loop schedule.
	st := &state{}
	if err := w.prepare(ctx, ssta.DefaultFlow(), st); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	s := &target{w: w, st: st}
	smp := startSampler(ctx, nil)
	defer smp.stop()
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		dep, err := deployK(k)
		if err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", w.name, err)
		}
		a := &api{hc: newHTTPClient(cfg.conns), base: dep.base}
		if err := w.warm(ctx, a, st); err != nil {
			dep.stop()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		if k < setups-1 {
			dep.stop()
			continue
		}
		s.dep, s.a = dep, a
	}
	s.setupHost, _ = smp.stop() // a probe-only sampler reads no process file
	s.a.ids = st.sessIDs
	s.gen = &syncGen{g: w.newGen(cfg.seed, st)}
	s.sched = rand.New(rand.NewSource(cfg.seed))
	s.lc = &loadClient{
		hc: newHTTPClient(cfg.conns), base: s.dep.base, ids: st.sessIDs, workload: w.name,
		check: func(r *Request, body []byte) error { return w.check(st, r, body) },
	}
	return s, nil
}

// keepSample selects the deterministic 1-in-16 sample of sweep answers
// that is re-derived in-process after the phase.
func keepSample(r *Request) bool {
	return strings.HasPrefix(r.Class, "sweep") && r.Seq%sampleEvery == 0
}

func (s *target) scrape(ctx context.Context) ([]exposition, error) {
	out := make([]exposition, len(s.dep.metrics))
	for i, u := range s.dep.metrics {
		e, err := scrape(ctx, s.a.hc, u)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// coldMisses names any cache-miss counter that advanced between two
// scrapes of the same processes: steady state must be warm.
func coldMisses(before, after []exposition) []string {
	var out []string
	for _, name := range []string{"sstad_graph_cache_misses_total", "sstad_extract_cache_misses_total", "sstad_prep_cache_misses_total"} {
		for i := range after {
			if d := after[i].get(name) - before[i].get(name); d != 0 {
				out = append(out, fmt.Sprintf("%s advanced by %g on process %d during timed phases", name, d, i))
			}
		}
	}
	return out
}

// finish runs the workload's after-phase checks on every sampled outcome.
func (s *target) finish(ctx context.Context, t *tally, outs ...[]outcome) {
	if s.w.final == nil {
		return
	}
	var sampled []outcome
	for _, os := range outs {
		for _, o := range os {
			if o.ok && o.body != nil {
				sampled = append(sampled, o)
			}
		}
	}
	attempted, fails := s.w.final(ctx, s.a, s.st, s.gen, sampled)
	t.attempted += attempted
	for _, f := range fails {
		t.fail(f)
	}
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseDurations splits the measured seconds of an untraced run into the
// open-loop and closed-loop phases. The closed loop spans several of the
// store's one-second checkpoint flushes, so its capacity does not hinge
// on how many of them fall inside it; the open loop gets the rest, for its
// tail (20 s at the default 26: 1200 sweeps at 60 req/s).
func phaseDurations(seconds int) (open, closed time.Duration) {
	closed = 6 * time.Second
	if seconds < 15 {
		closed = time.Duration(seconds) * time.Second / 3
	}
	return time.Duration(seconds)*time.Second - closed, closed
}

// setupRuns is how many times an untraced run sets its deployment up;
// setup_s is their median, which a single slow process start cannot move.
const setupRuns = 5

// runE2E measures the end-to-end metrics: a timed open-loop phase then a
// closed-loop capacity phase, tracing off.
func runE2E(ctx context.Context, cfg *runCfg, w *workload) (*runResult, error) {
	s, err := boot(ctx, cfg, w, setupRuns, childDeploy(ctx, cfg, w))
	if err != nil {
		return nil, err
	}
	defer s.dep.stop()
	openDur, closedDur := phaseDurations(cfg.seconds)
	reqs := plan(s.sched, s.gen, w.rate, openDur)
	pids := s.dep.pids()
	before, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTicks(pids)
	if err != nil {
		return nil, err
	}
	smp := startSampler(ctx, pids)
	defer smp.stop()
	open := s.lc.openLoop(ctx, reqs, cfg.conns, keepSample)
	cpu1, err := cpuTicks(pids)
	if err != nil {
		return nil, err
	}
	openHost, err := smp.stop()
	if err != nil {
		return nil, err
	}
	smp = startSampler(ctx, pids)
	defer smp.stop()
	closed, capacity := s.lc.closedLoop(ctx, s.gen.next, cfg.conns, closedDur, keepSample)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	closedHost, err := smp.stop()
	if err != nil {
		return nil, err
	}
	after, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var t tally
	t.add(open)
	t.add(closed)
	s.finish(ctx, &t, open, closed)

	res := newResult(cfg, w, &t)
	res.Phases = map[string]int{"open": len(open), "closed": len(closed)}
	res.Notes = append(res.Notes, coldMisses(before, after)...)
	res.Notes = append(res.Notes, lagNote(open)...)
	okOpen := 0
	for i := range open {
		if open[i].ok {
			okOpen++
		}
	}
	lats := make([]float64, len(open))
	for i := range open {
		lats[i] = open[i].lat
	}
	sort.Float64s(lats)
	m := map[string]float64{
		"capacity_rps":          capacity,
		"error_ratio":           float64(t.failed) / float64(max(t.attempted, 1)),
		"cpu_ms_per_req":        float64(cpu1-cpu0) * 1000 / clockTicksPerSec / float64(max(okOpen, 1)),
		"server_rss_mb":         median(append(openHost.rssMiB, closedHost.rssMiB...)),
		"setup_s":               median(s.setups),
		"host.probe_us":         openHost.probeUS,
		"host.probe_closed_us":  closedHost.probeUS,
		"host.probe_setup_us":   s.setupHost.probeUS,
		"host.steal_pct":        100 * openHost.steal,
		"host.steal_closed_pct": 100 * closedHost.steal,
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.50}, {"p99_ms", 0.99}} {
		v, err := percentile(lats, p.q)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("%s not reported: %v", p.name, err))
			continue
		}
		m[p.name] = v
	}
	rescale(m, "p50_ms", openHost.probeUS, latencyExp)
	rescale(m, "p99_ms", openHost.probeUS, latencyExp)
	rescale(m, "capacity_rps", closedHost.probeUS, latencyExp)
	rescale(m, "cpu_ms_per_req", openHost.probeUS, costExp)
	rescale(m, "setup_s", s.setupHost.probeUS, costExp)
	res.setMetrics(m)
	res.Valid = len(res.Notes) == 0
	return res, nil
}

// probeRefUS is the host probe's unit time on the reference host (the
// 2-vCPU host the baseline in doc.go was recorded on).
const probeRefUS = 110.0

// The powers of the probe time that the metrics follow. On a shared host
// the speed of a core drifts by 10-40% over minutes, and a run's CPU cost
// and latency drift with it, faster than the probe does. Fitted over 34
// runs of the four workloads (log metric against log probe time, r =
// 0.75-0.99), the daemon's CPU per request and set-up time went as the
// probe time to the power 1.3-2.0; p50 latency and closed-loop capacity,
// which add waiting for the two shared processors, as the power 2-3.
// Rescaling by these powers cut the runs' spread two- to fourfold.
const (
	costExp    = 2.0 // cpu_ms_per_req, setup_s
	latencyExp = 2.5 // p50_ms, p99_ms, capacity_rps
)

// rescale brings one metric to the reference host speed, keeping the value
// as measured under raw.<name>: a time is multiplied by (reference / probe
// time of its phase)^exp, a rate divided by it. The probe's work shares no
// code with the daemon, so a change to the daemon moves a rescaled metric
// as it moves the raw one.
func rescale(m map[string]float64, name string, probeUS, exp float64) {
	v, ok := m[name]
	if !ok {
		return
	}
	m["raw."+name] = v
	f := math.Pow(probeRefUS/probeUS, exp)
	if unitOf(name) == "req/s" {
		m[name] = v / f
	} else {
		m[name] = v * f
	}
}

// lagNote flags a run whose generator woke late: then the open loop was not
// the schedule it claims.
func lagNote(outs ...[]outcome) []string {
	var lags []float64
	for _, os := range outs {
		for i := range os {
			if !math.IsNaN(os[i].lag) {
				lags = append(lags, os[i].lag)
			}
		}
	}
	v, err := percentile(sortedCopy(lags), 0.99)
	if err != nil {
		return nil // too few requests to judge
	}
	if v >= 1 {
		return []string{fmt.Sprintf("loadgen.sched_lag_p99_ms %.3f >= 1 ms: the generator ran late", v)}
	}
	return nil
}

func newResult(cfg *runCfg, w *workload, t *tally) *runResult {
	return &runResult{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Correct: !t.wrong, Attempted: t.attempted, Failed: t.failed, Failures: t.failures, Examples: t.examples,
	}
}

// setMetrics stores finite values with their units; a ratio with no base
// (NaN) is left out.
func (r *runResult) setMetrics(m map[string]float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	for k, v := range m {
		if finite(v) {
			r.Metrics[k] = metricValue{Value: v, Unit: unitOf(k)}
		}
	}
}

// runTraced measures the per-layer metrics: one open loop at the
// workload's rate in which every other request is traced (the p50s of the
// two halves give the tracing overhead), /metrics deltas around it, then
// the in-process replay. Traced and untraced requests interleave so that
// they share the host's conditions: run as two phases one after the other,
// their p50s differed by up to 20% either way on a shared host, more than
// the tracing costs.
func runTraced(ctx context.Context, cfg *runCfg, w *workload, tr *tracer) (*runResult, error) {
	s, err := boot(ctx, cfg, w, 1, childDeploy(ctx, cfg, w))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.dep.stop()
		}
	}()
	// The replay takes a few seconds of its own; the open loop gets the
	// rest of the measured time.
	phase := time.Duration(max(cfg.seconds-4, 4)) * time.Second
	reqs := plan(s.sched, s.gen, w.rate, phase)
	before, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	s.lc.tr = tr
	cpu0 := selfCPU()
	outs := s.lc.openLoop(ctx, reqs, cfg.conns, keepSample)
	cpu := selfCPU() - cpu0
	s.lc.tr = nil
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var t tally
	t.add(outs)
	s.finish(ctx, &t, outs)
	s.dep.stop()
	stopped = true

	rep, err := replay(ctx, tr, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	res := newResult(cfg, w, &t)
	res.Phases = map[string]int{"open": len(outs)}
	res.Notes = append(res.Notes, coldMisses(before, after)...)
	res.Notes = append(res.Notes, lagNote(outs)...)
	if cov := tr.rootCoverage("req."); cov < 0.95 {
		res.Notes = append(res.Notes, fmt.Sprintf("client spans cover only %.1f%% of a request", cov*100))
	}
	m, err := layerMetrics(w, outs, before, after, cpu, rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.setMetrics(m)
	res.Valid = len(res.Notes) == 0
	return res, nil
}

// layerMetrics derives the per-layer numbers of a traced run from its
// open loop's outcomes, the /metrics scrapes around it, the generator's
// CPU time over it and the replay.
func layerMetrics(w *workload, outs []outcome, before, after []exposition, cpu time.Duration, rep map[string]float64) (map[string]float64, error) {
	m := map[string]float64{}
	for k, v := range rep {
		m[k] = v
	}
	var lags, queue, latTraced, latUntraced, ttfb, readBody, refTTFB []float64
	ok := 0
	for i := range outs {
		o := &outs[i]
		if !math.IsNaN(o.lag) {
			lags = append(lags, o.lag)
		}
		if !math.IsNaN(o.queue) {
			queue = append(queue, o.queue)
		}
		if !o.traced {
			latUntraced = append(latUntraced, o.lat)
		} else {
			latTraced = append(latTraced, o.lat)
		}
		if !o.ok {
			continue
		}
		ok++
		if math.IsNaN(o.ttfb) {
			continue
		}
		ttfb = append(ttfb, o.ttfb)
		readBody = append(readBody, o.readBody)
		if o.class == w.refClass {
			refTTFB = append(refTTFB, o.ttfb)
		}
	}
	p := func(xs []float64, q float64) (float64, error) { return percentile(sortedCopy(xs), q) }
	var err error
	if m["loadgen.sched_lag_p99_ms"], err = p(lags, 0.99); err != nil {
		return nil, fmt.Errorf("loadgen.sched_lag_p99_ms: %w", err)
	}
	if m["loadgen.conn_wait_p99_ms"], err = p(queue, 0.99); err != nil {
		return nil, fmt.Errorf("loadgen.conn_wait_p99_ms: %w", err)
	}
	m["loadgen.cpu_ms_per_req"] = ms(cpu) / float64(max(ok, 1))
	p50u, err := p(latUntraced, 0.5)
	if err != nil {
		return nil, err
	}
	p50t, err := p(latTraced, 0.5)
	if err != nil {
		return nil, err
	}
	m["trace_overhead_pct"] = (p50t - p50u) / p50u * 100
	if m["server.ttfb_p50_ms"], err = p(ttfb, 0.5); err != nil {
		return nil, err
	}
	if m["server.read_body_p50_ms"], err = p(readBody, 0.5); err != nil {
		return nil, err
	}
	ref := rep[w.refReplay]
	if unitOf(w.refReplay) == "us" {
		ref /= 1000
	}
	refP50, err := p(refTTFB, 0.5)
	if err != nil {
		return nil, fmt.Errorf("server.front_overhead_ms (%s): %w", w.refClass, err)
	}
	m["server.front_overhead_ms"] = refP50 - ref
	if w.cluster {
		m["cluster.overhead_ms"] = m["server.front_overhead_ms"]
	}

	// /metrics deltas over the open loop. Process 0 is the standalone
	// daemon or the coordinator, which sees every public request.
	front := after[0].delta(before[0])
	all := exposition{}
	for i := range after {
		all = all.add(after[i].delta(before[i]))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return math.NaN()
		}
		return num / den
	}
	reqs := front.get(`sstad_requests_total{endpoint="analyze"}`) + front.get("sstad_sweep_requests_total")
	m["server.coalesce_hit_ratio"] = ratio(front.sum("sstad_coalesce_hits_total"), reqs)
	gh, gm := all.get("sstad_graph_cache_hits_total"), all.get("sstad_graph_cache_misses_total")
	m["server.graph_cache_hit_ratio"] = ratio(gh, gh+gm)
	m["server.rejected_ratio"] = ratio(front.get("sstad_requests_rejected_total"), float64(len(outs)))
	m["server.item_latency_mean_ms"] = 1000 * ratio(front.get("sstad_item_latency_seconds_sum"), front.get("sstad_item_latency_seconds_count"))
	m["server.sweep_scenario_latency_mean_ms"] = 1000 * ratio(front.get("sstad_sweep_scenario_latency_seconds_sum"), front.get("sstad_sweep_scenario_latency_seconds_count"))
	m["server.reanalysis_latency_mean_ms"] = 1000 * ratio(front.get("sstad_session_reanalysis_seconds_sum"), front.get("sstad_session_reanalysis_seconds_count"))
	ph, pm := all.get("sstad_prep_cache_hits_total"), all.get("sstad_prep_cache_misses_total")
	m["hier.prep_cache_hit_ratio"] = ratio(ph, ph+pm)
	eh, em := all.get("sstad_extract_cache_hits_total"), all.get("sstad_extract_cache_misses_total")
	m["core.extract_cache_hit_ratio"] = ratio(eh, eh+em)
	if w.cluster {
		m["cluster.dispatches_per_req"] = ratio(front.get("sstad_cluster_dispatches_total"), front.get("sstad_sweep_requests_total"))
		m["cluster.retries"] = front.get("sstad_cluster_retries_total")
		m["cluster.failovers"] = front.get("sstad_cluster_failovers_total")
		m["cluster.local_fallbacks"] = front.get("sstad_cluster_local_fallbacks_total")
		// The remote model cache works at warm-up; read it since boot.
		var rh, rm float64
		for _, e := range after[1:] {
			rh += e.get(`sstad_remote_model_cache_total{result="hit"}`)
			rm += e.get(`sstad_remote_model_cache_total{result="miss"}`)
		}
		m["cluster.remote_cache_hit_ratio"] = ratio(rh, rh+rm)
	}
	if w.store {
		m["store.put_ops"] = front.get(`sstad_store_ops_total{op="put"}`)
		m["store.put_errors"] = front.get(`sstad_store_errors_total{op="put"}`)
		m["store.flush_lag_max_s"] = max(before[0].get("sstad_store_flush_lag_seconds"), after[0].get("sstad_store_flush_lag_seconds"))
	}
	return m, nil
}

// runWorkload dispatches to the traced or untraced measurement and writes
// the trace files of a traced run.
func runWorkload(ctx context.Context, cfg *runCfg, w *workload) (*runResult, error) {
	if !cfg.trace {
		return runE2E(ctx, cfg, w)
	}
	tr := newTracer()
	res, err := runTraced(ctx, cfg, w, tr)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.out, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(dir); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}
