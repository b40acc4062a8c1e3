package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/ssta"
)

// metrics aggregates the serving-layer counters surfaced on /metrics in
// Prometheus text exposition format. All counters are monotonic except the
// gauges (active analyses, queue depth) which are sampled at scrape time.
type metrics struct {
	start time.Time

	analyzeRequests atomic.Int64 // POST /v1/analyze accepted
	jobRequests     atomic.Int64 // POST /v1/jobs accepted
	rejected        atomic.Int64 // requests refused at admission (429/503)
	badRequests     atomic.Int64 // malformed bodies / invalid specs
	internalErrors  atomic.Int64 // server-side faults answered with a 500

	itemsTotal atomic.Int64 // batch items completed by the engine
	itemErrors atomic.Int64 // batch items finished with an error
	// itemsRejected counts items refused before the engine ran (bad spec
	// or expired deadline); they stay out of the latency histogram so a
	// rejection burst cannot drag the reported mean toward zero.
	itemsRejected atomic.Int64

	// Per-item latency: sum/count for the mean, max tracked under a lock
	// (atomics cannot do floating-point max).
	latMu    sync.Mutex
	latSum   float64
	latCount int64
	latMax   float64

	// MCMM sweep surface: request and per-scenario accounting plus the
	// per-scenario latency aggregate. Scenarios cut by a deadline are
	// rejections, not latency samples — same rule as batch items.
	sweepRequests     atomic.Int64
	scenariosTotal    atomic.Int64
	scenarioErrors    atomic.Int64
	scenariosRejected atomic.Int64

	sweepMu    sync.Mutex
	sweepSum   float64 // seconds, per completed scenario
	sweepCount int64
	sweepMax   float64

	// Session lifecycle and incremental-reanalysis latency.
	sessionsCreated atomic.Int64
	sessionsDeleted atomic.Int64
	sessionsEvicted atomic.Int64
	editsApplied    atomic.Int64 // individual edits across all batches

	reanMu    sync.Mutex
	reanSum   float64 // seconds, per applied edit batch
	reanCount int64
	reanMax   float64

	// Coalescing front: followers answered from another caller's in-flight
	// execution, by endpoint.
	coalesceAnalyze atomic.Int64
	coalesceSweep   atomic.Int64

	// Micro-batching front. Occupancy sum / executions = mean batch size;
	// scenariosDeduped counts union scenarios shared by multiple callers.
	batchRequests      atomic.Int64 // calls routed through the batcher
	batchExecutions    atomic.Int64 // batched sweep executions launched
	batchOccSum        atomic.Int64 // callers summed over executions
	batchFlushSize     atomic.Int64 // groups flushed by reaching -batch-max
	batchFlushDeadline atomic.Int64 // groups flushed by the -batch-window timer
	scenariosDeduped   atomic.Int64

	// streaming tracks live SSE connections (gauge).
	streaming atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// coalesceHit records one request answered from another caller's
// in-flight execution.
func (m *metrics) coalesceHit(endpoint string) {
	switch endpoint {
	case "analyze":
		m.coalesceAnalyze.Add(1)
	default:
		m.coalesceSweep.Add(1)
	}
}

// batchFlush records why a micro-batch group closed.
func (m *metrics) batchFlush(reason string) {
	switch reason {
	case "size":
		m.batchFlushSize.Add(1)
	default:
		m.batchFlushDeadline.Add(1)
	}
}

// observeItem records one finished batch item.
func (m *metrics) observeItem(d time.Duration, failed bool) {
	m.itemsTotal.Add(1)
	if failed {
		m.itemErrors.Add(1)
	}
	sec := d.Seconds()
	m.latMu.Lock()
	m.latSum += sec
	m.latCount++
	if sec > m.latMax {
		m.latMax = sec
	}
	m.latMu.Unlock()
}

// observeScenario records one finished sweep scenario.
func (m *metrics) observeScenario(d time.Duration, failed bool) {
	m.scenariosTotal.Add(1)
	if failed {
		m.scenarioErrors.Add(1)
	}
	sec := d.Seconds()
	m.sweepMu.Lock()
	m.sweepSum += sec
	m.sweepCount++
	if sec > m.sweepMax {
		m.sweepMax = sec
	}
	m.sweepMu.Unlock()
}

// observeReanalysis records one applied session edit batch.
func (m *metrics) observeReanalysis(d time.Duration, edits int) {
	m.editsApplied.Add(int64(edits))
	sec := d.Seconds()
	m.reanMu.Lock()
	m.reanSum += sec
	m.reanCount++
	if sec > m.reanMax {
		m.reanMax = sec
	}
	m.reanMu.Unlock()
}

// handleMetrics renders the scrape. The gauges come from the server so the
// text reflects live admission and queue state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	m.latMu.Lock()
	latSum, latCount, latMax := m.latSum, m.latCount, m.latMax
	m.latMu.Unlock()
	cache := s.flow.Cache.Metrics()
	graphs := s.graphs.Stats()
	queued, running, finished := s.jobs.counts()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	p("# HELP sstad_uptime_seconds Seconds since the server started.")
	p("sstad_uptime_seconds %g", time.Since(m.start).Seconds())
	p("# HELP sstad_requests_total Accepted analysis requests by endpoint.")
	p(`sstad_requests_total{endpoint="analyze"} %d`, m.analyzeRequests.Load())
	p(`sstad_requests_total{endpoint="jobs"} %d`, m.jobRequests.Load())
	p("# HELP sstad_requests_rejected_total Requests refused at admission (full queue or shutdown).")
	p("sstad_requests_rejected_total %d", m.rejected.Load())
	p("# HELP sstad_bad_requests_total Malformed or invalid requests.")
	p("sstad_bad_requests_total %d", m.badRequests.Load())
	p("# HELP sstad_internal_errors_total Server-side faults answered with a 500.")
	p("sstad_internal_errors_total %d", m.internalErrors.Load())
	p("# HELP sstad_items_total Batch items completed.")
	p("sstad_items_total %d", m.itemsTotal.Load())
	p("sstad_item_errors_total %d", m.itemErrors.Load())
	p("# HELP sstad_items_rejected_total Items refused before analysis (bad spec or expired deadline).")
	p("sstad_items_rejected_total %d", m.itemsRejected.Load())
	p("# HELP sstad_item_latency_seconds Per-item wall-clock latency.")
	p("sstad_item_latency_seconds_sum %g", latSum)
	p("sstad_item_latency_seconds_count %d", latCount)
	p("sstad_item_latency_seconds_max %g", latMax)
	p("# HELP sstad_active_analyses Requests currently holding an analysis slot.")
	p("sstad_active_analyses %d", s.activeAnalyses())
	p("# HELP sstad_analysis_slots Configured concurrent-analysis bound.")
	p("sstad_analysis_slots %d", cap(s.sem))
	p("# HELP sstad_jobs Queue depth and lifecycle counts of async jobs.")
	p(`sstad_jobs{state="queued"} %d`, queued)
	p(`sstad_jobs{state="running"} %d`, running)
	p(`sstad_jobs{state="finished"} %d`, finished)
	p("# HELP sstad_extract_cache Extraction-cache counters (hit rate = hits / (hits+misses)).")
	p("sstad_extract_cache_hits_total %d", cache.Hits)
	p("sstad_extract_cache_misses_total %d", cache.Misses)
	p("sstad_extract_cache_evictions_total %d", cache.Evictions)
	p("sstad_extract_cache_entries %d", cache.Entries)
	p("sstad_extract_cache_cost_bytes %d", cache.Cost)
	p("sstad_extract_cache_entry_cap %d", cache.MaxEntries)
	extractions, extractTime := s.flow.Cache.Extractions()
	p("# HELP sstad_extractions_total Cold model extractions run on extract-cache misses.")
	p("sstad_extractions_total %d", extractions)
	p("# HELP sstad_extract_seconds_total Wall-clock seconds those cold extractions took.")
	p("sstad_extract_seconds_total %g", extractTime.Seconds())
	p("# HELP sstad_graph_cache Built-graph cache counters.")
	p("sstad_graph_cache_hits_total %d", graphs.Hits)
	p("sstad_graph_cache_misses_total %d", graphs.Misses)
	prepHits, prepMisses := ssta.PrepCacheStats()
	p("# HELP sstad_prep_cache Per-mode analysis-prep cache counters (process-wide).")
	p("sstad_prep_cache_hits_total %d", prepHits)
	p("sstad_prep_cache_misses_total %d", prepMisses)
	stitchHits, stitchMisses := ssta.StitchCacheStats()
	p("# HELP sstad_stitch_cache Per-design stitched-top-graph cache counters (process-wide).")
	p("sstad_stitch_cache_hits_total %d", stitchHits)
	p("sstad_stitch_cache_misses_total %d", stitchMisses)
	p("# HELP sstad_coalesce_hits_total Requests answered from another caller's in-flight execution.")
	p(`sstad_coalesce_hits_total{endpoint="analyze"} %d`, m.coalesceAnalyze.Load())
	p(`sstad_coalesce_hits_total{endpoint="sweep"} %d`, m.coalesceSweep.Load())
	p("# HELP sstad_coalesce_inflight Distinct executions currently coalescing callers.")
	p("sstad_coalesce_inflight %d", s.coalesce.inFlight())
	p("# HELP sstad_batch_requests_total Calls routed through the micro-batcher.")
	p("sstad_batch_requests_total %d", m.batchRequests.Load())
	p("# HELP sstad_batch_executions Batched sweep executions; occupancy_sum/executions = mean batch size.")
	p("sstad_batch_executions_total %d", m.batchExecutions.Load())
	p("sstad_batch_occupancy_sum %d", m.batchOccSum.Load())
	p("# HELP sstad_batch_flush_total Micro-batch group flushes by trigger.")
	p(`sstad_batch_flush_total{reason="size"} %d`, m.batchFlushSize.Load())
	p(`sstad_batch_flush_total{reason="deadline"} %d`, m.batchFlushDeadline.Load())
	p("# HELP sstad_batch_scenarios_deduped_total Union scenarios shared by multiple batched callers.")
	p("sstad_batch_scenarios_deduped_total %d", m.scenariosDeduped.Load())
	if s.batch != nil {
		p("# HELP sstad_batch_gathering Micro-batch groups currently gathering callers.")
		p("sstad_batch_gathering %d", s.batch.gathering())
	}
	p("# HELP sstad_streaming_connections Live SSE streaming connections.")
	p("sstad_streaming_connections %d", m.streaming.Load())
	m.sweepMu.Lock()
	sweepSum, sweepCount, sweepMax := m.sweepSum, m.sweepCount, m.sweepMax
	m.sweepMu.Unlock()
	p("# HELP sstad_sweep_requests_total MCMM sweep requests received (before admission and validation).")
	p("sstad_sweep_requests_total %d", m.sweepRequests.Load())
	p("# HELP sstad_sweep_scenarios_total Sweep scenarios completed by the engine.")
	p("sstad_sweep_scenarios_total %d", m.scenariosTotal.Load())
	p("sstad_sweep_scenario_errors_total %d", m.scenarioErrors.Load())
	p("# HELP sstad_sweep_scenarios_rejected_total Scenarios cut before completion (expired deadline).")
	p("sstad_sweep_scenarios_rejected_total %d", m.scenariosRejected.Load())
	p("# HELP sstad_sweep_scenario_latency_seconds Per-scenario wall-clock latency.")
	p("sstad_sweep_scenario_latency_seconds_sum %g", sweepSum)
	p("sstad_sweep_scenario_latency_seconds_count %d", sweepCount)
	p("sstad_sweep_scenario_latency_seconds_max %g", sweepMax)
	m.reanMu.Lock()
	reanSum, reanCount, reanMax := m.reanSum, m.reanCount, m.reanMax
	m.reanMu.Unlock()
	p("# HELP sstad_sessions Live timing sessions.")
	p("sstad_sessions %d", s.sessions.len())
	p("# HELP sstad_sessions_lifecycle_total Session lifecycle counters.")
	p(`sstad_sessions_lifecycle_total{event="created"} %d`, m.sessionsCreated.Load())
	p(`sstad_sessions_lifecycle_total{event="deleted"} %d`, m.sessionsDeleted.Load())
	p(`sstad_sessions_lifecycle_total{event="evicted"} %d`, m.sessionsEvicted.Load())
	p("# HELP sstad_session_edits_total Individual edits applied across all batches.")
	p("sstad_session_edits_total %d", m.editsApplied.Load())
	p("# HELP sstad_session_reanalysis_seconds Incremental re-analysis latency per edit batch.")
	p("sstad_session_reanalysis_seconds_sum %g", reanSum)
	p("sstad_session_reanalysis_seconds_count %d", reanCount)
	p("sstad_session_reanalysis_seconds_max %g", reanMax)
	if ps := s.persist; ps != nil {
		now := time.Now()
		p("# HELP sstad_store_ops_total Durable-store backend operations by kind.")
		for i, name := range storeOpNames {
			p(`sstad_store_ops_total{op=%q} %d`, name, ps.store.ops[i].Load())
		}
		p("# HELP sstad_store_errors_total Failed durable-store operations by kind (a Get miss is not an error).")
		for i, name := range storeOpNames {
			p(`sstad_store_errors_total{op=%q} %d`, name, ps.store.errs[i].Load())
		}
		p("# HELP sstad_store_put_bytes_total Bytes written by successful durable-store puts.")
		p("sstad_store_put_bytes_total %d", ps.store.putBytes.Load())
		p("# HELP sstad_store_session_checkpoints_total Session checkpoints written, full bases and deltas.")
		p(`sstad_store_session_checkpoints_total{kind="base"} %d`, ps.bases.Load())
		p(`sstad_store_session_checkpoints_total{kind="delta"} %d`, ps.deltas.Load())
		p("# HELP sstad_store_flush_seconds_total Wall time spent in write-behind flush rounds.")
		p("sstad_store_flush_seconds_total %g", time.Duration(ps.flushNanos.Load()).Seconds())
		p("# HELP sstad_store_flush_lag_seconds Age of the oldest unflushed checkpoint (0 when drained).")
		p("sstad_store_flush_lag_seconds %g", ps.flushLag(now).Seconds())
		p("# HELP sstad_store_pending Checkpoints waiting in the write-behind queue.")
		p("sstad_store_pending %d", ps.pending())
		p("# HELP sstad_store_quarantined_total Snapshots moved aside as corrupt or version-skewed.")
		p("sstad_store_quarantined_total %d", ps.quarantined.Load())
		p("# HELP sstad_store_sessions_restored_total Sessions restored at warm start.")
		p("sstad_store_sessions_restored_total %d", ps.restored.Load())
	}
	if rc := &s.remoteCache; rc.hits.Load()+rc.misses.Load()+rc.rejected.Load() > 0 {
		p("# HELP sstad_remote_model_cache_total Model snapshots the coordinator pushed to this worker: hit seeded the extract cache, miss found the model there already, rejected failed validation.")
		p(`sstad_remote_model_cache_total{result="hit"} %d`, rc.hits.Load())
		p(`sstad_remote_model_cache_total{result="miss"} %d`, rc.misses.Load())
		p(`sstad_remote_model_cache_total{result="rejected"} %d`, rc.rejected.Load())
	}
	if cl := s.cluster; cl != nil {
		p("# HELP sstad_cluster_dispatches_total Sweep shards dispatched to workers.")
		p("sstad_cluster_dispatches_total %d", cl.dispatches.Load())
		p("# HELP sstad_cluster_retries_total Shard dispatch retries after a transport or worker failure.")
		p("sstad_cluster_retries_total %d", cl.retries.Load())
		p("# HELP sstad_cluster_failovers_total Shards re-homed to a surviving node or pulled back locally.")
		p("sstad_cluster_failovers_total %d", cl.failovers.Load())
		p("# HELP sstad_cluster_local_fallbacks_total Executions served locally because no worker could.")
		p("sstad_cluster_local_fallbacks_total %d", cl.localFallbacks.Load())
		p("# HELP sstad_cluster_proxy_errors_total Session proxy requests that failed in transport.")
		p("sstad_cluster_proxy_errors_total %d", cl.proxyErrors.Load())
		p("# HELP sstad_cluster_routed_sessions Sessions currently pinned to a worker node.")
		p("sstad_cluster_routed_sessions %d", cl.routedSessions())
		p("# HELP sstad_cluster_model_pushes_total Extracted-model snapshots pushed to workers, by the worker's answer.")
		p(`sstad_cluster_model_pushes_total{result="accepted"} %d`, cl.modelPushes.Load())
		p(`sstad_cluster_model_pushes_total{result="refused"} %d`, cl.modelRefusals.Load())
		p("# HELP sstad_cluster_node Per-node health and dispatch counters.")
		for _, n := range cl.pool.Nodes() {
			healthy := 0
			if n.Healthy() {
				healthy = 1
			}
			p(`sstad_cluster_node_healthy{node=%q} %d`, n.Addr(), healthy)
			p(`sstad_cluster_node_inflight{node=%q} %d`, n.Addr(), n.InFlight.Load())
			p(`sstad_cluster_node_dispatches_total{node=%q} %d`, n.Addr(), n.Dispatches.Load())
			p(`sstad_cluster_node_errors_total{node=%q} %d`, n.Addr(), n.Errors.Load())
			p(`sstad_cluster_node_sessions{node=%q} %d`, n.Addr(), n.Sessions.Load())
		}
	}
}
