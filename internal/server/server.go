// Package server is the sstad serving layer: a long-running HTTP/JSON
// front end over the ssta engine, the paper's model-reuse story turned
// into a daemon. Extract a module's timing model once, then answer many
// analyses against it cheaply — here the "many analyses" arrive as
// requests, and the reuse lives in bounded caches: built graphs,
// extracted models and quad designs share one policy (internal/memo), and
// each design keeps its own per-mode analysis preps.
//
// Endpoints:
//
//	POST /v1/analyze     analyze a list of items synchronously (per-request
//	                     deadline)
//	POST /v1/sweep       evaluate many MCMM scenarios against one item with
//	                     shared prep (see sweep.go); SSE when the client
//	                     sends Accept: text/event-stream (see sse.go)
//	POST /v1/jobs        submit the analyze body asynchronously
//	GET  /v1/jobs        bounded newest-first listing of ids + states
//	GET  /v1/jobs/{id}   poll status/result
//	DELETE /v1/jobs/{id} cancel a queued or running job (204 once terminal)
//	GET  /healthz        liveness and the process boot id
//	GET  /metrics        Prometheus text: cache hit rates, queue depth,
//	                     per-item latency
//
// Every analysis runs on one path, the executor (Server.execute): resolve
// the item's subject, materialize its scenarios, and run them through the
// sweep engine — sharded across workers on a coordinator. An analyze item
// is the identity scenario over its subject, so an item's answer is the
// same whether it arrives alone, in a multi-item request, in a job or in a
// micro-batch.
//
// Admission is bounded end to end: a semaphore caps concurrently running
// analyses (sync requests wait on it under their deadline, 429 on
// overload), the async queue is a fixed-depth channel (503 when full), and
// every execution runs under a context whose cancellation reaches
// individual graph vertices.
//
// The synchronous front door (analyze + sweep) additionally coalesces and
// micro-batches (see coalesce.go): byte-identical concurrent requests
// share one execution, and — with batching enabled — compatible requests
// against the same subject merge into one shared-prep execution.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/memo"
	"repro/internal/store"
	"repro/internal/timing"
	"repro/ssta"
)

// Config tunes the server. The zero value serves with sane defaults.
type Config struct {
	// Flow is the analysis context; nil selects ssta.DefaultFlow() with a
	// bounded extraction cache.
	Flow *ssta.Flow
	// MaxConcurrent caps analyses running at once across sync requests and
	// job workers (<=0: 2).
	MaxConcurrent int
	// AdmissionWait caps how long a sync request may wait for an analysis
	// slot before 429 (<=0: half its deadline).
	AdmissionWait time.Duration
	// QueueDepth bounds the async job queue (<=0: 64).
	QueueDepth int
	// JobWorkers is the number of job-draining goroutines (<=0: 1).
	JobWorkers int
	// MaxFinishedJobs bounds retained finished jobs (<=0: 256).
	MaxFinishedJobs int
	// DefaultTimeout applies to requests that set no timeout_ms (<=0: 60s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (<=0: 10m).
	MaxTimeout time.Duration
	// MaxItems bounds items per request (<=0: 256).
	MaxItems int
	// BatchWindow is the micro-batcher's gathering window: compatible
	// requests (same subject and mode, any scenarios) arriving within it
	// are answered from one shared-prep sweep. <=0 disables batching (the
	// default) — coalescing of identical requests stays on regardless.
	BatchWindow time.Duration
	// BatchMax flushes a gathering micro-batch early once this many
	// callers joined (<=1: 8). Only meaningful with BatchWindow > 0.
	BatchMax int
	// MaxBodyBytes bounds request bodies (<=0: 8 MiB).
	MaxBodyBytes int64
	// GraphCacheEntries bounds the built-graph cache and the quad-design
	// cache, each (<=0: 64).
	GraphCacheEntries int
	// Workers is the default per-batch worker count when the request sets
	// none (<=0: 1; keep small, item concurrency is already bounded by
	// MaxConcurrent).
	Workers int
	// MaxSessions bounds live timing sessions (<=0: 64).
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (<=0: 15m).
	SessionTTL time.Duration
	// DefaultScenarios is the scenario set served to /v1/sweep requests
	// that name none (sstad -scenarios). Optional; requests that carry
	// their own scenarios never consult it.
	DefaultScenarios []SweepScenarioSpec
	// Store enables durable state: sessions and extracted models are
	// checkpointed write-behind and restored at boot (sstad -store-dir).
	// Nil serves purely in memory. The store is advisory by contract: a
	// failing backend degrades durability, never requests.
	Store store.Backend
	// StoreFlushInterval paces the write-behind flusher (<=0: 1s).
	StoreFlushInterval time.Duration
	// Cluster, when set, makes this server a coordinator over the given
	// worker pool: sweeps shard across healthy workers, sessions pin to a
	// worker by subject fingerprint, and the models a sweep's prep
	// extracted are pushed to the workers that run its shards. The server
	// owns the pool's lifecycle (started in New, closed in Close). Nil —
	// and a pool whose workers are all down — serves exactly like
	// standalone.
	Cluster *cluster.Pool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.MaxFinishedJobs <= 0 {
		c.MaxFinishedJobs = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxItems <= 0 {
		c.MaxItems = 256
	}
	if c.BatchMax <= 1 {
		c.BatchMax = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.GraphCacheEntries <= 0 {
		c.GraphCacheEntries = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.StoreFlushInterval <= 0 {
		c.StoreFlushInterval = time.Second
	}
	return c
}

// Server is the sstad daemon state. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg      Config
	flow     *ssta.Flow
	mux      *http.ServeMux
	sem      chan struct{} // analysis slots; len(sem) = running analyses
	graphs   *memo.Cache[graphKey, builtGraph]
	jobs     *jobStore
	sessions *sessionStore
	metrics  *metrics
	coalesce *coalescer
	batch    *batcher // nil when batching is disabled (BatchWindow <= 0)

	// streamWG tracks open streaming (SSE) responses so shutdown can drain
	// them — ordered after baseStop (which aborts their executions) and
	// before the store's final flush (their partial results may checkpoint).
	streamWG sync.WaitGroup

	// quads holds built quad designs with their per-mode prep (~1 MB for
	// quad-c1355), bounded like the graph cache.
	quads *memo.Cache[quadKey, *ssta.Design]

	// persist is the durability pipeline; nil without Config.Store.
	persist *persister

	// cluster is the coordinator's dispatch state; nil unless Config.Cluster
	// was set. remoteCache counts the model snapshots a coordinator pushed
	// to this node (only a worker node ever increments it).
	cluster     *clusterState
	remoteCache remoteCacheStats

	// bootID names this server instance on /healthz, so a coordinator can
	// tell a restarted worker from one that only dropped a connection.
	bootID string

	baseCtx  context.Context
	baseStop context.CancelFunc
	wg       sync.WaitGroup
}

// New builds a server and starts its job workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	flow := cfg.Flow
	if flow == nil {
		flow = ssta.DefaultFlow()
	}
	if flow.Cache == nil {
		// The serving layer relies on the extraction cache for both reuse
		// and its /metrics story; install a bounded one if the flow came
		// without.
		flow.Cache = ssta.NewExtractCache()
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		flow:     flow,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		graphs:   memo.New[graphKey, builtGraph](cfg.GraphCacheEntries, 0, nil),
		jobs:     newJobStore(cfg.QueueDepth, cfg.MaxFinishedJobs),
		sessions: newSessionStore(cfg.MaxSessions, cfg.SessionTTL),
		metrics:  newMetrics(),
		quads:    memo.New[quadKey, *ssta.Design](cfg.GraphCacheEntries, 0, nil),
		coalesce: newCoalescer(),
		bootID:   newBootID(),
		baseCtx:  base,
		baseStop: stop,
	}
	if cfg.BatchWindow > 0 {
		s.batch = newBatcher(s, cfg.BatchMax, cfg.BatchWindow)
	}
	if cfg.Cluster != nil {
		s.cluster = newClusterState(cfg.Cluster)
		cfg.Cluster.Start(base)
	}
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobPoll)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/sessions/{id}/edits", s.handleSessionEdits)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for w := 0; w < cfg.JobWorkers; w++ {
		s.wg.Add(1)
		go s.runJobs(base)
	}
	s.wg.Add(1)
	go s.runSessionJanitor(base)
	if cfg.Store != nil {
		s.persist = newPersister(s, cfg.Store, cfg.StoreFlushInterval)
		// Advance the id counter past every persisted session before the
		// first create can race the asynchronous warm start.
		s.persist.bumpSessionSeq(base)
		// Raised here, synchronously, so /healthz never reports a finished
		// recovery that has not actually started.
		s.persist.recovering.Store(true)
		s.wg.Add(2)
		go s.runWarmStart(base)
		go s.runStoreFlusher(base)
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the job workers and waits for them to drain. In-flight
// batches observe the cancellation cooperatively; open streaming responses
// drain next (the cancellation cuts their sweeps short, and the partial
// events plus an error summary flush to the client before the connection
// closes). With a store configured, a final synchronous flush then
// checkpoints whatever the write-behind pipeline still held — including
// session state checkpointed by draining streams — the graceful half of
// crash safety.
func (s *Server) Close() {
	s.baseStop()
	s.wg.Wait()
	s.streamWG.Wait()
	if s.cluster != nil {
		s.cluster.pool.Close()
	}
	if s.persist != nil {
		s.persist.finalFlush()
	}
}

func (s *Server) activeAnalyses() int { return len(s.sem) }

// requestCtx derives the batch context honoring the client deadline knob.
func (s *Server) requestCtx(parent context.Context, req *AnalyzeRequest) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(parent, d)
}

// decodeRequest parses and structurally validates an analyze body.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (AnalyzeRequest, bool) {
	var req AnalyzeRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return req, false
	}
	if len(req.Items) == 0 {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "request has no items")
		return req, false
	}
	if len(req.Items) > s.cfg.MaxItems {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("request has %d items, limit %d", len(req.Items), s.cfg.MaxItems))
		return req, false
	}
	for k := range req.Items {
		if err := req.Items[k].checkCost(); err != nil {
			s.metrics.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, fmt.Sprintf("item %d: %v", k, err))
			return req, false
		}
	}
	return req, true
}

// analyzeItems answers every item of req through the executor, fanning
// out req.Workers items at a time. Unbatched, the request holds one
// analysis slot throughout, taken within wait (jobs pass 0: a job worker
// owns its turn and only gives up with its context). Batched, each item
// rides its subject's micro-batch, whose execution holds the slot. Item
// failures, spec errors and deadline cuts included, land in the item
// results; the error is reserved for a refused admission.
func (s *Server) analyzeItems(ctx context.Context, req *AnalyzeRequest, wait time.Duration, batched bool) (*AnalyzeResponse, error) {
	start := time.Now()
	if !batched {
		if err := s.acquireSlotWait(ctx, wait); err != nil {
			return nil, err
		}
		defer s.releaseSlot()
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	resp := &AnalyzeResponse{Results: make([]ItemResult, len(req.Items))}
	err := timing.ParallelFor(len(req.Items), workers, func(k int) (err error) {
		resp.Results[k], err = s.analyzeItem(ctx, req, k, batched)
		return err
	})
	if err != nil {
		return nil, err
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// analyzeItem runs item k of req as the identity scenario over its
// subject: directly, or seated in its subject's micro-batch.
func (s *Server) analyzeItem(ctx context.Context, req *AnalyzeRequest, k int, batched bool) (ItemResult, error) {
	spec := &req.Items[k]
	// ItemWorkers bounds a hierarchical stitch; unset, it runs serially.
	itemWorkers := max(1, req.ItemWorkers)
	var x *execution
	idx := 0
	key, err := batchKeyOf(spec)
	switch {
	case err != nil:
	case batched:
		ans := s.batch.do(ctx, key, *spec, &batchCall{
			name:        spec.Name,
			extract:     spec.Extract,
			itemWorkers: itemWorkers,
			timeout:     s.effectiveTimeout(req.TimeoutMS),
		})
		if ans.status == http.StatusTooManyRequests {
			return ItemResult{}, ans.err
		}
		x, idx, err = ans.x, ans.idx, ans.err
	default:
		x, err = s.execute(ctx, &analysis{spec: *spec, extract: spec.Extract, itemWorkers: itemWorkers})
	}
	return s.itemView(spec, k, x, idx, err), nil
}

// itemView assembles one analyze item's wire result from its execution
// and the index of its scenario there — the one assembly for unbatched
// items and batcher riders alike — and accounts it. An item that never
// ran, or was cut by cancellation, is a rejection rather than a latency
// sample, so a deadline burst cannot drag the reported mean toward zero.
func (s *Server) itemView(spec *ItemSpec, k int, x *execution, idx int, err error) ItemResult {
	out := ItemResult{Name: spec.Name}
	if x != nil && out.Name == "" {
		out.Name = x.name
	}
	if out.Name == "" {
		out.Name = fmt.Sprintf("item[%d]", k)
	}
	if err != nil {
		s.metrics.itemsRejected.Add(1)
		out.Error = err.Error()
		return out
	}
	r := &x.rep.Results[idx]
	out.ElapsedMS = float64(r.Elapsed.Microseconds()) / 1000
	if errorKind(r.Err) != "" {
		s.metrics.itemsRejected.Add(1)
	} else {
		s.metrics.observeItem(r.Elapsed, r.Err != nil)
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	out.MeanPS, out.StdPS, out.P9987PS = r.Mean, r.Std, r.Quantile
	out.Verts, out.Edges = x.rep.TopVerts, x.rep.TopEdges
	if spec.Extract && x.model != nil {
		out.ModelVerts, out.ModelEdges = x.model.Graph.NumVerts, len(x.model.Graph.Edges)
	}
	out.Setup, out.Hold = slackViewOfStat(r.SetupSlack), slackViewOfStat(r.HoldSlack)
	return out
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	s.metrics.analyzeRequests.Add(1)
	// Everything past decode flows through the coalescing front: identical
	// concurrent requests share one execution.
	fp := requestFingerprint("analyze", &req, nil, 0)
	s.serveCoalesced(w, r, "analyze", fp, req.TimeoutMS, func(ctx context.Context) (int, []byte) {
		resp, err := s.analyzeItems(ctx, &req, s.admissionWait(ctx), s.batch != nil)
		if err != nil {
			s.metrics.rejected.Add(1)
			return http.StatusTooManyRequests, errorBody(http.StatusTooManyRequests, err.Error())
		}
		return jsonAnswer(http.StatusOK, resp)
	})
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	s.metrics.jobRequests.Add(1)
	j, err := s.jobs.submit(req)
	if err != nil {
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	v, _ := s.jobs.view(j.id)
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleJobPoll(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.view(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleJobList answers GET /v1/jobs with a bounded, newest-first summary
// of known jobs (ids and states). ?limit= overrides the default page of
// 100, clamped to the store's retention-scale bound.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			s.metrics.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q", q))
			return
		}
		limit = n
	}
	if limit > 1000 {
		limit = 1000
	}
	jobs := s.jobs.list(limit)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "count": len(jobs)})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	v, terminal, ok := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if terminal {
		// The job already reached a terminal state; the repeat DELETE had
		// nothing to cancel.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// newBootID draws a random instance id.
func newBootID() string {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running, _ := s.jobs.counts()
	w.Header().Set(cluster.BootIDHeader, s.bootID)
	body := map[string]any{
		"status":          "ok",
		"boot_id":         s.bootID,
		"uptime_seconds":  time.Since(s.metrics.start).Seconds(),
		"active_analyses": s.activeAnalyses(),
		"queued_jobs":     queued,
		"running_jobs":    running,
		"sessions":        s.sessions.len(),
		// Hierarchical sessions restore flat after a restart (their design
		// structure edits are gone); surfaced so operators can tell restored
		// capability loss from live sessions.
		"sessions_restored_flat": s.sessions.countRestoredFlat(),
	}
	serving := map[string]any{
		"coalesce_hits":         s.metrics.coalesceAnalyze.Load() + s.metrics.coalesceSweep.Load(),
		"coalesce_inflight":     s.coalesce.inFlight(),
		"batching":              s.batch != nil,
		"batch_executions":      s.metrics.batchExecutions.Load(),
		"batch_occupancy_sum":   s.metrics.batchOccSum.Load(),
		"streaming_connections": s.metrics.streaming.Load(),
	}
	if s.batch != nil {
		serving["batch_gathering"] = s.batch.gathering()
	}
	body["serving"] = serving
	if p := s.persist; p != nil {
		kind, flushAge, lastErr, degraded := p.status()
		var errs int64
		for i := range p.store.errs {
			errs += p.store.errs[i].Load()
		}
		st := map[string]any{
			"backend":                kind,
			"last_flush_age_seconds": flushAge.Seconds(),
			"pending":                p.pending(),
			"errors":                 errs,
			"quarantined":            p.quarantined.Load(),
			"degraded":               degraded,
		}
		if lastErr != nil {
			st["last_error"] = lastErr.Error()
		}
		body["store"] = st
		body["recovering"] = p.recovering.Load()
	}
	if cl := s.cluster; cl != nil {
		nodes := []map[string]any{}
		for _, n := range cl.pool.Nodes() {
			nv := map[string]any{
				"addr":       n.Addr(),
				"healthy":    n.Healthy(),
				"in_flight":  n.InFlight.Load(),
				"dispatches": n.Dispatches.Load(),
				"errors":     n.Errors.Load(),
				"sessions":   n.Sessions.Load(),
			}
			if !n.LastSeen().IsZero() {
				nv["last_seen_age_seconds"] = time.Since(n.LastSeen()).Seconds()
			}
			if err := n.LastErr(); err != nil {
				nv["last_error"] = err.Error()
			}
			nodes = append(nodes, nv)
		}
		body["cluster"] = map[string]any{
			"nodes":           nodes,
			"routed_sessions": cl.routedSessions(),
			"dispatches":      cl.dispatches.Load(),
			"retries":         cl.retries.Load(),
			"failovers":       cl.failovers.Load(),
			"local_fallbacks": cl.localFallbacks.Load(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// decodeJSONStrict decodes a request body rejecting unknown fields.
func decodeJSONStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeJSON writes v as the answer, or a 500 when v does not encode
// (jsonAnswer).
func writeJSON(w http.ResponseWriter, code int, v any) {
	code, body := jsonAnswer(code, v)
	writeRaw(w, code, body)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeRaw(w, code, errorBody(code, msg))
}
