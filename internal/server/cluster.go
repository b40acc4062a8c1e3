package server

// Distributed serving: sstad can run as a coordinator fronting a pool of
// worker nodes. Workers serve the ordinary HTTP API, plus two
// coordinator-only extras, on their -rpc-listen listener
// (Server.WorkerService), and everything between coordinator and worker
// is plain HTTP over the pool's keep-alive transport:
//
//   - A sweep splits its scenario set into contiguous shards, one per
//     healthy worker, and each shard is a POST /v1/sweep with its
//     scenarios already named by their global index. Results map back to
//     the full sweep by their position in the shard. A shard streams over
//     SSE only when the coordinator has a progress consumer (an SSE
//     client), so per-scenario events reach it as the workers finish them.
//   - Stateful sessions pin to a worker by subject fingerprint (consistent
//     hashing in the pool) and are served through httputil.ReverseProxy,
//     so session bodies, SSE edit streams included, are the worker's own.
//   - Before a node's first shard for a subject, the coordinator pushes
//     the sealed model snapshots its own prep already extracted (the quad
//     module and any swap benches) with PUT /cluster/models/{key}, and the
//     worker seeds its extract cache from them instead of extracting.
//
// Degradation ladder, in order: a failed shard dispatch retries with
// jittered backoff, re-homing to a surviving worker, then executes locally
// on the coordinator; a sweep with no healthy workers runs entirely
// locally. A cluster of one (or zero) workers therefore behaves exactly
// like standalone. Session proxying does not fail over (the session's
// state lives on its worker); a dead worker yields 503 until the worker
// returns or the client re-creates the session.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/ssta"
)

const (
	// sessionIDHeader carries the coordinator-allocated session id on a
	// proxied create, so the worker registers the session under the id the
	// coordinator routes by. Only WorkerService honours it.
	sessionIDHeader = "X-Sstad-Session-Id"
	// maxPushLog bounds the coordinator's record of pushed models; on
	// overflow it forgets everything and re-pushes on demand.
	maxPushLog = 4096
)

// Error kinds a SweepScenarioResult names, so a coordinator classifies a
// worker's scenario failures (rejected vs failed) like local ones.
const (
	errKindCanceled = "canceled"
	errKindDeadline = "deadline"
)

func errorKind(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return errKindCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return errKindDeadline
	}
	return ""
}

// scenarioErr rebuilds a worker's scenario error: the message verbatim,
// with errors.Is still matching the context sentinel its kind names.
func scenarioErr(msg, kind string) error {
	var sentinel error
	switch kind {
	case errKindCanceled:
		sentinel = context.Canceled
	case errKindDeadline:
		sentinel = context.DeadlineExceeded
	default:
		if msg == "" {
			return nil
		}
		return errors.New(msg)
	}
	if prefix, ok := strings.CutSuffix(msg, sentinel.Error()); ok {
		return fmt.Errorf("%s%w", prefix, sentinel)
	}
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// scenarioResultOf is sweepScenarioView's inverse.
func scenarioResultOf(v *SweepScenarioResult) ssta.ScenarioResult {
	r := ssta.ScenarioResult{
		Name:     v.Name,
		Mean:     v.MeanPS,
		Std:      v.StdPS,
		Quantile: v.P9987PS,
		Shared:   v.Shared,
		Elapsed:  time.Duration(math.Round(v.ElapsedMS*1000)) * time.Microsecond,
		Err:      scenarioErr(v.Error, v.ErrorKind),
	}
	if v.Setup != nil {
		r.SetupSlack = &ssta.SlackStat{Mean: v.Setup.MeanPS, Std: v.Setup.StdPS, Quantile: v.Setup.QPS}
	}
	if v.Hold != nil {
		r.HoldSlack = &ssta.SlackStat{Mean: v.Hold.MeanPS, Std: v.Hold.StdPS, Quantile: v.Hold.QPS}
	}
	return r
}

// clusterState is the coordinator's cluster bookkeeping: the worker pool,
// the session routing table, the record of pushed models, and the
// dispatch counters.
type clusterState struct {
	pool *cluster.Pool

	mu     sync.Mutex
	routes map[string]*cluster.Node
	// pushed maps (node, model key) to the node's boot id when the model
	// was pushed: once the id has changed, the worker restarted without it.
	pushed map[pushKey]string

	dispatches     atomic.Int64 // shard dispatch attempts
	retries        atomic.Int64 // attempts beyond a shard's first
	failovers      atomic.Int64 // shards re-homed off their first node
	localFallbacks atomic.Int64 // executions (whole or shard) run locally
	proxyErrors    atomic.Int64 // session proxy transport failures
	modelPushes    atomic.Int64 // model snapshots a worker accepted
	modelRefusals  atomic.Int64 // model snapshots a worker refused
}

type pushKey struct {
	node *cluster.Node
	key  string
}

func newClusterState(pool *cluster.Pool) *clusterState {
	return &clusterState{
		pool:   pool,
		routes: make(map[string]*cluster.Node),
		pushed: make(map[pushKey]string),
	}
}

func (cl *clusterState) route(id string) *cluster.Node {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.routes[id]
}

func (cl *clusterState) setRoute(id string, n *cluster.Node) {
	cl.mu.Lock()
	cl.routes[id] = n
	cl.mu.Unlock()
	n.Sessions.Add(1)
}

func (cl *clusterState) dropRoute(id string) {
	cl.mu.Lock()
	n := cl.routes[id]
	delete(cl.routes, id)
	cl.mu.Unlock()
	if n != nil {
		n.Sessions.Add(-1)
	}
}

func (cl *clusterState) routedSessions() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.routes)
}

func (cl *clusterState) wasPushed(n *cluster.Node, key string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	boot, ok := cl.pushed[pushKey{n, key}]
	return ok && boot == n.BootID()
}

func (cl *clusterState) markPushed(n *cluster.Node, key, boot string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.pushed) >= maxPushLog {
		cl.pushed = make(map[pushKey]string)
	}
	cl.pushed[pushKey{n, key}] = boot
}

// remoteCacheStats counts the model snapshots a coordinator pushed to this
// node (worker side; zero on a standalone or coordinator node): hits
// seeded the extract cache, misses found the model already there, and
// rejected ones failed validation.
type remoteCacheStats struct {
	hits, misses, rejected atomic.Int64
}

// WorkerService is the handler a worker serves its coordinator on
// -rpc-listen: the public API plus what only a coordinator may do. A
// session create may claim its id (sessionIDHeader), so the coordinator's
// routing table and the worker agree on it, and PUT /cluster/models/{key}
// seeds the extract cache with a model snapshot.
func (s *Server) WorkerService() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.mux)
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s.createSession(w, r, r.Header.Get(sessionIDHeader))
	})
	mux.HandleFunc("PUT /cluster/models/{key}", s.handleModelPut)
	return mux
}

// ---------------------------------------------------------------------------
// Coordinator: distributed sweep dispatch

// runSweep executes a prepared sweep: locally when standalone (or when no
// worker is healthy), otherwise sharded across the pool.
func (s *Server) runSweep(ctx context.Context, pr *sweepPrep, opt ssta.SweepOptions) (*ssta.SweepReport, error) {
	cl := s.cluster
	if cl == nil {
		return pr.run(ctx, opt)
	}
	healthy := cl.pool.Healthy()
	if len(healthy) == 0 {
		cl.localFallbacks.Add(1)
		return pr.run(ctx, opt)
	}
	return s.runSweepDistributed(ctx, cl, healthy, pr, opt)
}

func (s *Server) runSweepDistributed(ctx context.Context, cl *clusterState, healthy []*cluster.Node, pr *sweepPrep, opt ssta.SweepOptions) (*ssta.SweepReport, error) {
	start := time.Now()
	n := len(pr.specs)
	if n == 0 || n != len(pr.scens) {
		// A prep without wire specs (shouldn't happen) cannot be sharded.
		cl.localFallbacks.Add(1)
		return pr.run(ctx, opt)
	}

	// An EdgeScales key outside its graph fails the sweep here, before any
	// dispatch, exactly as it would standalone: a worker's refusal of its
	// shard would not say which scenario of the request was at fault.
	if err := scenario.CheckEdgeScales(ctx, pr.graph, pr.design, pr.mode, pr.scens, opt.Analyze); err != nil {
		return nil, err
	}

	// Independent copies with globally assigned default names: a worker's
	// Normalize fills names by shard-local index, so unnamed scenarios must
	// be named here with their global index to match standalone output.
	specs := make([]SweepScenarioSpec, n)
	copy(specs, pr.specs)
	scens := make([]ssta.Scenario, n)
	copy(scens, pr.scens)
	for i := range specs {
		if specs[i].Name == "" {
			name := fmt.Sprintf("scenario-%d", i)
			specs[i].Name = name
			scens[i].Name = name
		}
	}

	var timeoutMS int64
	if dl, ok := ctx.Deadline(); ok {
		timeoutMS = max(1, int64(time.Until(dl)/time.Millisecond))
	}

	results := make([]ssta.ScenarioResult, n)
	done := make([]bool, n)
	var mu sync.Mutex
	record := func(i int, r ssta.ScenarioResult) {
		if i < 0 || i >= n {
			return
		}
		mu.Lock()
		if done[i] {
			mu.Unlock()
			return
		}
		done[i] = true
		results[i] = r
		mu.Unlock()
		if opt.OnScenarioDone != nil {
			opt.OnScenarioDone(i, &results[i])
		}
	}
	remaining := func(idx []int) []int {
		mu.Lock()
		defer mu.Unlock()
		var left []int
		for _, i := range idx {
			if !done[i] {
				left = append(left, i)
			}
		}
		return left
	}
	// Subject graph size, reassembled from whichever shard (or local
	// fallback) reports it first: the scalar stand-in for the worker-side
	// top graph, which never crosses the wire.
	var topVerts, topEdges int
	noteTop := func(verts, edges int) {
		if verts <= 0 {
			return
		}
		mu.Lock()
		if topVerts == 0 {
			topVerts, topEdges = verts, edges
		}
		mu.Unlock()
	}

	// Contiguous shards over the healthy nodes, one goroutine per shard.
	nw := len(healthy)
	if nw > n {
		nw = n
	}
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		lo, hi := k*n/nw, (k+1)*n/nw
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		wg.Add(1)
		go func(node *cluster.Node, idx []int) {
			defer wg.Done()
			s.dispatchShard(ctx, cl, node, pr, specs, idx, timeoutMS, opt, record, remaining, noteTop)
		}(healthy[k], idx)
	}
	wg.Wait()

	// Anything still missing (total dispatch and fallback failure) gets the
	// context error, mirroring the engine's fillUnrun accounting.
	for i := 0; i < n; i++ {
		mu.Lock()
		missing := !done[i]
		mu.Unlock()
		if !missing {
			continue
		}
		err := ctx.Err()
		if err == nil {
			err = errors.New("scenario: not run")
		}
		record(i, ssta.ScenarioResult{Name: scens[i].Name, Err: err})
	}

	rep := scenario.NewReport(results, scenario.Options{TopK: opt.TopK, Quantile: opt.Quantile})
	rep.Elapsed = time.Since(start)
	if pr.graph != nil {
		// The shared flat graph is local; report its size as standalone
		// would. A distributed design sweep has no local stitched top — its
		// scalar stats come back in the shard responses instead.
		rep.Top = pr.graph
		rep.TopVerts, rep.TopEdges = pr.graph.NumVerts, len(pr.graph.Edges)
	} else {
		mu.Lock()
		rep.TopVerts, rep.TopEdges = topVerts, topEdges
		mu.Unlock()
	}
	return rep, nil
}

// dispatchShard drives one shard to completion: dispatch to its node,
// retry with jittered backoff, re-home to a survivor, and finally execute
// the remainder locally. Every path records results through record, so the
// per-scenario hook fires exactly once per scenario.
func (s *Server) dispatchShard(ctx context.Context, cl *clusterState, node *cluster.Node, pr *sweepPrep, specs []SweepScenarioSpec, idx []int, timeoutMS int64, opt ssta.SweepOptions, record func(int, ssta.ScenarioResult), remaining func([]int) []int, noteTop func(int, int)) {
	bo := store.Backoff{Base: 25 * time.Millisecond, Cap: 250 * time.Millisecond, MaxAttempts: 3, Jitter: 0.5}
	attempt := 0
	err := bo.Retry(ctx, func() error {
		attempt++
		if attempt > 1 {
			cl.retries.Add(1)
			// Prefer re-homing to a survivor: the common failure is a dead
			// or demoted node, and hammering it wastes the remaining budget.
			if alt := pickOther(cl.pool, node); alt != nil {
				node = alt
				cl.failovers.Add(1)
			}
		}
		left := remaining(idx)
		if len(left) == 0 {
			return nil
		}
		return s.callShard(ctx, cl, node, pr, specs, left, timeoutMS, record, noteTop)
	})
	if err == nil {
		return
	}
	left := remaining(idx)
	if len(left) == 0 || ctx.Err() != nil {
		return
	}
	cl.failovers.Add(1)
	cl.localFallbacks.Add(1)
	s.runShardLocal(ctx, pr, left, opt, record, noteTop)
}

// pickOther returns a healthy node other than cur, if any.
func pickOther(pool *cluster.Pool, cur *cluster.Node) *cluster.Node {
	for _, n := range pool.Healthy() {
		if n != cur {
			return n
		}
	}
	return nil
}

// callShard sends one shard to one node as a POST /v1/sweep, recording
// streamed per-scenario events as they arrive and the final answer as
// backstop. A node that goes unhealthy mid-dispatch (crash, hang) aborts
// the call so the shard can re-home instead of waiting out the request
// deadline.
func (s *Server) callShard(ctx context.Context, cl *clusterState, node *cluster.Node, pr *sweepPrep, specs []SweepScenarioSpec, idx []int, timeoutMS int64, record func(int, ssta.ScenarioResult), noteTop func(int, int)) error {
	req := SweepRequest{
		ItemSpec:  pr.spec,
		Scenarios: make([]SweepScenarioSpec, len(idx)),
		Workers:   pr.workers,
		TimeoutMS: timeoutMS,
	}
	for k, i := range idx {
		req.Scenarios[k] = specs[i]
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	cl.dispatches.Add(1)

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-watchDone:
				return
			case <-cctx.Done():
				return
			case <-t.C:
				if !node.Healthy() {
					cancel()
					return
				}
			}
		}
	}()

	if err := s.pushModels(cctx, cl, node, pr); err != nil {
		return err
	}
	// A shard result's position in the shard is its index in idx.
	put := func(k int, v *SweepScenarioResult) {
		if k >= 0 && k < len(idx) {
			record(idx[k], scenarioResultOf(v))
		}
	}
	var onEvent func([]byte)
	if pr.progress {
		onEvent = func(ev []byte) {
			if name, data := parseEvent(ev); name == "scenario" {
				var se SweepScenarioEvent
				if json.Unmarshal(data, &se) == nil {
					put(se.Index, &se.SweepScenarioResult)
				}
			}
		}
	}
	answer, err := cl.pool.Do(cctx, node, "POST /v1/sweep", body, onEvent)
	if err != nil {
		return err
	}
	if pr.progress {
		name, data := parseEvent(answer)
		if name != "summary" {
			return fmt.Errorf("shard stream ended with a %q event: %s", name, data)
		}
		answer = data
	}
	var resp SweepResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(idx) {
		return fmt.Errorf("shard of %d scenarios answered %d results", len(idx), len(resp.Results))
	}
	noteTop(resp.Verts, resp.Edges)
	for k := range resp.Results {
		put(k, &resp.Results[k])
	}
	return nil
}

// parseEvent splits one SSE event into its name and data line.
func parseEvent(ev []byte) (name string, data []byte) {
	for _, line := range bytes.Split(ev, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			name = string(v)
		} else if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			data = v
		}
	}
	return name, data
}

// pushModels sends node the sealed snapshots of the models pr's prep
// already extracted here (the quad module and any swap benches) before
// its first shard of them, so the worker seeds its extract cache instead
// of extracting. Each model goes once per (node, key), and again once the
// node's health check reports a new boot id: a restarted worker has lost
// its cache. Only a transport failure fails the shard attempt; a worker
// that refuses a snapshot extracts for itself.
func (s *Server) pushModels(ctx context.Context, cl *clusterState, node *cluster.Node, pr *sweepPrep) error {
	var gks []graphKey
	if q := pr.spec.Quad; q != nil {
		gks = append(gks, graphKey{bench: q.Bench, seed: q.Seed})
	}
	for i := range pr.specs {
		for _, sw := range pr.specs[i].Swaps {
			gks = append(gks, graphKey{bench: sw.Bench, seed: sw.Seed})
		}
	}
	for _, gk := range gks {
		key, ok := modelKey(gk)
		if !ok || cl.wasPushed(node, key) {
			continue
		}
		b, ok := s.graphs.Peek(gk)
		if !ok {
			continue
		}
		m, ok := s.flow.Cache.Lookup(b.g, ssta.ExtractOptions{})
		if !ok {
			continue
		}
		data, err := m.EncodeSnapshot()
		if err != nil {
			continue
		}
		boot := node.BootID()
		_, err = cl.pool.Do(ctx, node, "PUT /cluster/"+key, data, nil)
		var status *cluster.StatusError
		switch {
		case errors.As(err, &status):
			cl.modelRefusals.Add(1)
		case err != nil:
			return err
		default:
			cl.modelPushes.Add(1)
		}
		cl.markPushed(node, key, boot)
	}
	return nil
}

// runShardLocal executes the remaining scenario subset on the coordinator,
// remapping the per-scenario hook back to global indices.
func (s *Server) runShardLocal(ctx context.Context, pr *sweepPrep, idx []int, opt ssta.SweepOptions, record func(int, ssta.ScenarioResult), noteTop func(int, int)) {
	sub := *pr
	sub.scens = make([]ssta.Scenario, len(idx))
	for k, i := range idx {
		sub.scens[k] = pr.scens[i]
		if sub.scens[k].Name == "" {
			sub.scens[k].Name = fmt.Sprintf("scenario-%d", i)
		}
	}
	lopt := opt
	lopt.OnScenarioDone = func(k int, r *ssta.ScenarioResult) {
		if k >= 0 && k < len(idx) {
			record(idx[k], *r)
		}
	}
	if rep, _ := sub.run(ctx, lopt); rep != nil {
		noteTop(rep.TopVerts, rep.TopEdges)
	}
}

// ---------------------------------------------------------------------------
// Worker: model push

// handleModelPut seeds this worker's extract cache with a model snapshot
// its coordinator pushed. The key names the graph the model belongs to;
// the worker builds (or reuses) that graph itself and checks the model's
// ports and source digest against it, so a bad key, a corrupt snapshot or
// a model extracted from any other graph is refused with a 4xx and leaves
// the cache unseeded. The graph is hashed here, once per push.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	refuse := func(code int, msg string) {
		s.remoteCache.rejected.Add(1)
		httpError(w, code, msg)
	}
	gk, ok := parseModelKey(modelKeyPrefix + r.PathValue("key"))
	if !ok || gk.mult > maxMult {
		refuse(http.StatusBadRequest, fmt.Sprintf("bad model key %q", r.PathValue("key")))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		refuse(code, "model snapshot: "+err.Error())
		return
	}
	m, err := ssta.DecodeModelSnapshot(data)
	if err != nil {
		refuse(http.StatusBadRequest, "model snapshot: "+err.Error())
		return
	}
	g, err := s.cachedGraph(r.Context(), gk)
	if err != nil {
		refuse(http.StatusBadRequest, "model graph: "+err.Error())
		return
	}
	if len(m.Graph.Inputs) != len(g.Inputs) || len(m.Graph.Outputs) != len(g.Outputs) {
		refuse(http.StatusBadRequest, fmt.Sprintf("model has %d/%d ports, graph %d/%d",
			len(m.Graph.Inputs), len(m.Graph.Outputs), len(g.Inputs), len(g.Outputs)))
		return
	}
	// The model must have been extracted from this very graph: equal port
	// counts alone admit another seed's or the clocked variant's model.
	if m.Source == "" {
		refuse(http.StatusBadRequest, "model carries no source digest")
		return
	}
	if want := g.Digest(); m.Source != want {
		refuse(http.StatusConflict, fmt.Sprintf("model was extracted from graph %.12s, key names graph %.12s", m.Source, want))
		return
	}
	if s.flow.Cache.Seed(g, ssta.ExtractOptions{}, m) {
		s.remoteCache.hits.Add(1)
	} else {
		s.remoteCache.misses.Add(1)
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------------
// Session affinity: coordinator-side routing through a reverse proxy

// validSessionID bounds the ids a proxied create will honor (they become
// store keys on the worker).
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			continue
		}
		return false
	}
	return true
}

// clusterSessionCreate routes a session create to its affinity worker.
// It reports true when it fully handled the request; false means the
// caller should serve it locally (no healthy node, or the worker could
// not be reached — the degradation ladder's local fallback), with r.Body
// restored.
func (s *Server) clusterSessionCreate(w http.ResponseWriter, r *http.Request) bool {
	cl := s.cluster
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return true
	}
	restore := func() {
		r.Body = io.NopCloser(bytes.NewReader(raw))
		r.ContentLength = int64(len(raw))
	}
	var req SessionCreateRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return true
	}
	fp := ItemFingerprint(&req.ItemSpec)
	node := cl.pool.Pick(fp[:])
	if node == nil {
		cl.localFallbacks.Add(1)
		restore()
		return false
	}
	id := s.sessions.nextID()
	restore()
	failed := s.proxySession(w, r, node, id, func(status int) {
		if status == http.StatusCreated {
			cl.setRoute(id, node)
		}
	})
	if failed && r.Context().Err() == nil {
		// The worker may or may not have created the session; an orphan is
		// reaped by its idle janitor. Serving locally keeps the request
		// answered.
		cl.failovers.Add(1)
		restore()
		return false
	}
	return true
}

// clusterSessionProxy forwards a pinned session request (get, edits —
// including SSE streams — and delete) to the session's worker. Reports
// true when the request was handled (successfully or with an error
// response); false when the id has no route and the caller should serve
// locally.
func (s *Server) clusterSessionProxy(w http.ResponseWriter, r *http.Request, id string) bool {
	cl := s.cluster
	node := cl.route(id)
	if node == nil {
		return false
	}
	failed := s.proxySession(w, r, node, "", func(status int) {
		// A 404 means the worker no longer has the session (restart,
		// eviction): drop the stale route so a re-created session can pin
		// afresh.
		if status == http.StatusNotFound || r.Method == http.MethodDelete && status == http.StatusOK {
			cl.dropRoute(id)
		}
	})
	if failed {
		httpError(w, http.StatusServiceUnavailable, "session worker unavailable")
	}
	return true
}

// proxySession serves r from node's worker through httputil.ReverseProxy
// on the pool's transport; event streams flush through as they arrive.
// claimID, when set, names the session a create registers. onStatus sees
// the worker's status before its answer is copied out. It reports a
// transport failure, in which case nothing was written to w.
func (s *Server) proxySession(w http.ResponseWriter, r *http.Request, node *cluster.Node, claimID string, onStatus func(int)) (failed bool) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	rp := &httputil.ReverseProxy{
		Transport: s.cluster.pool,
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(&url.URL{Scheme: "http", Host: node.Addr()})
			pr.Out.Header.Del(sessionIDHeader)
			if claimID != "" {
				pr.Out.Header.Set(sessionIDHeader, claimID)
			}
		},
		ModifyResponse: func(resp *http.Response) error {
			onStatus(resp.StatusCode)
			return nil
		},
		ErrorHandler: func(http.ResponseWriter, *http.Request, error) {
			s.cluster.proxyErrors.Add(1)
			failed = true
		},
	}
	rp.ServeHTTP(w, r.WithContext(ctx))
	return failed
}
