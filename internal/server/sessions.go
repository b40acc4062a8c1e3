package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/ssta"
)

// This file is the stateful half of the daemon: timing sessions. A client
// creates a session (paying one full analysis), then streams edit batches
// against it; every batch is re-analyzed incrementally — only the edited
// fan-out cones are re-propagated, or a per-instance restitch for module
// swaps — and answered with the delta. Sessions are evicted after an idle
// TTL so abandoned clients cannot pin graphs forever.
//
//	POST   /v1/sessions            create (body: one item spec)
//	GET    /v1/sessions/{id}       inspect
//	POST   /v1/sessions/{id}/edits apply an edit batch, return the delta
//	DELETE /v1/sessions/{id}       drop
//
// Edit ops over the wire (see EditSpec): scale_delay, set_nominal,
// add_edge, remove_edge on flat sessions; set_net_delay, swap_module on
// hierarchical (quad) sessions.

// SessionCreateRequest is the body of POST /v1/sessions: the same item
// vocabulary as /v1/analyze (exactly one of bench, netlist, mult, quad),
// analyzed once to seed the session.
type SessionCreateRequest struct {
	ItemSpec
	// Scenarios, when present, installs an MCMM sweep on the session: the
	// scenarios are evaluated once here (full propagation each) and every
	// subsequent edit batch re-evaluates all of them incrementally,
	// reporting the refreshed sweep in the edit response. Swap scenarios
	// are rejected — sessions express swaps as edits. On a quad session,
	// a scenario with edge_scales refuses every later swap_module edit: a
	// swap renumbers the top graph's edges the keys index.
	Scenarios []SweepScenarioSpec `json:"scenarios,omitempty"`
	// TimeoutMS caps the initial full analysis. Zero: server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EditSpec is one edit of a session batch.
type EditSpec struct {
	// Op is the edit kind: "scale_delay", "set_nominal", "add_edge",
	// "remove_edge" (flat sessions), "set_net_delay", "swap_module"
	// (hierarchical sessions).
	Op string `json:"op"`
	// Edge is the target edge index for scale_delay/set_nominal/remove_edge.
	Edge int `json:"edge,omitempty"`
	// Scale is the positive delay factor for scale_delay.
	Scale float64 `json:"scale,omitempty"`
	// ValuePS is the nominal delay for set_nominal, the constant delay for
	// add_edge, and the wire delay for set_net_delay.
	ValuePS float64 `json:"value_ps,omitempty"`
	// From/To are the endpoints for add_edge.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Net is the design net index for set_net_delay.
	Net int `json:"net,omitempty"`
	// Instance names the target instance for swap_module; Bench/Seed name
	// the replacement module, which is generated, extracted (through the
	// shared extraction cache) and stitched in.
	Instance string `json:"instance,omitempty"`
	Bench    string `json:"bench,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// SessionEditRequest is the body of POST /v1/sessions/{id}/edits.
type SessionEditRequest struct {
	Edits     []EditSpec `json:"edits"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// SessionView is the wire representation of a session.
type SessionView struct {
	ID         string  `json:"id"`
	Name       string  `json:"name"`
	Kind       string  `json:"kind"` // "flat" or "hier"
	Verts      int     `json:"verts"`
	Edges      int     `json:"edges"`
	MeanPS     float64 `json:"mean_ps"`
	StdPS      float64 `json:"std_ps"`
	P9987PS    float64 `json:"p9987_ps"`
	Edits      int64   `json:"edits"`
	CreatedMS  int64   `json:"created_unix_ms"`
	LastUsedMS int64   `json:"last_used_unix_ms"`
	// ElapsedMS is the wall-clock cost of the initial full analysis (on the
	// create response) — the price edits then amortize.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Sweep is the session's active MCMM sweep as of the last edit batch,
	// when one was installed at create time.
	Sweep *SweepResponse `json:"sweep,omitempty"`
	// RestoredFlat marks a session that was hierarchical before a daemon
	// restart and came back flat from its checkpoint: delays and sweep are
	// preserved exactly, but design-structure edits (set_net_delay,
	// swap_module) are no longer available on it.
	RestoredFlat bool `json:"restored_flat,omitempty"`
}

// SessionEditResponse is the delta returned for one applied edit batch.
type SessionEditResponse struct {
	Applied         int     `json:"applied"`
	MeanPS          float64 `json:"mean_ps"`
	StdPS           float64 `json:"std_ps"`
	P9987PS         float64 `json:"p9987_ps"`
	RecomputedVerts int     `json:"recomputed_verts"`
	TotalVerts      int     `json:"total_verts"`
	FullReprop      bool    `json:"full_reprop,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	// Sweep is the refreshed active MCMM sweep, when the session installed
	// one at create time.
	Sweep *SweepResponse `json:"sweep,omitempty"`
}

// srvSession is one live session plus its bookkeeping.
type srvSession struct {
	id      string
	name    string
	sess    *ssta.Session
	created time.Time

	mu       sync.Mutex // guards lastUsed/edits (the session serializes itself)
	lastUsed time.Time
	edits    int64
}

func (s *srvSession) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// sessionStore is the bounded session registry with idle-TTL eviction.
type sessionStore struct {
	mu       sync.Mutex
	sessions map[string]*srvSession
	seq      int64
	max      int
	ttl      time.Duration
}

func newSessionStore(max int, ttl time.Duration) *sessionStore {
	if max <= 0 {
		max = 64
	}
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	return &sessionStore{sessions: make(map[string]*srvSession), max: max, ttl: ttl}
}

// add registers a session, failing when the table is full (429 upstream).
func (st *sessionStore) add(name string, sess *ssta.Session) (*srvSession, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.sessions) >= st.max {
		return nil, fmt.Errorf("session table full (%d live)", len(st.sessions))
	}
	st.seq++
	now := time.Now()
	s := &srvSession{
		id:      fmt.Sprintf("sess-%d", st.seq),
		name:    name,
		sess:    sess,
		created: now,
	}
	s.lastUsed = now
	st.sessions[s.id] = s
	return s, nil
}

// maxSessionSeq caps what a claimed or restored "sess-<n>" id may move the
// id sequence to: far beyond any real session count, and far enough below
// the int64 ceiling that add can keep incrementing without overflow.
const maxSessionSeq = 1 << 53

// addID registers a session under a caller-chosen id — the coordinator
// allocated it and routes by it, so the worker must register it verbatim.
// The sequence advances past numeric "sess-<n>" ids so local creates can
// never collide with coordinator-assigned ones.
func (st *sessionStore) addID(id, name string, sess *ssta.Session) (*srvSession, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.sessions) >= st.max {
		return nil, fmt.Errorf("session table full (%d live)", len(st.sessions))
	}
	if _, taken := st.sessions[id]; taken {
		return nil, fmt.Errorf("session id %q already live", id)
	}
	if rest, ok := strings.CutPrefix(id, "sess-"); ok {
		if n, err := strconv.ParseInt(rest, 10, 64); err == nil {
			st.bumpSeqLocked(n)
		}
	}
	now := time.Now()
	s := &srvSession{id: id, name: name, sess: sess, created: now}
	s.lastUsed = now
	st.sessions[id] = s
	return s, nil
}

// nextID reserves a fresh session id without registering anything — the
// coordinator's allocation for a proxied create.
func (st *sessionStore) nextID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	return fmt.Sprintf("sess-%d", st.seq)
}

// countRestoredFlat counts live sessions that restored flat from a
// hierarchical checkpoint (surfaced in /healthz).
func (st *sessionStore) countRestoredFlat() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, s := range st.sessions {
		if s.sess.RestoredFlat() {
			n++
		}
	}
	return n
}

func (st *sessionStore) get(id string) (*srvSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	return s, ok
}

func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.sessions[id]; !ok {
		return false
	}
	delete(st.sessions, id)
	return true
}

func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// full reports whether the table is at capacity — the cheap admission
// precheck; add remains the authoritative bound.
func (st *sessionStore) full() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions) >= st.max
}

// evictIdle drops every session idle beyond the TTL and returns the
// evicted ids (the caller also drops their durable checkpoints).
func (st *sessionStore) evictIdle(now time.Time) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var evicted []string
	for id, s := range st.sessions {
		s.mu.Lock()
		last := s.lastUsed
		s.mu.Unlock()
		if now.Sub(last) > st.ttl {
			delete(st.sessions, id)
			evicted = append(evicted, id)
		}
	}
	return evicted
}

// bumpSeq advances the id counter to at least n, so ids restored from a
// previous run cannot collide with freshly created ones.
func (st *sessionStore) bumpSeq(n int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bumpSeqLocked(n)
}

func (st *sessionStore) bumpSeqLocked(n int64) {
	if n > st.seq && n <= maxSessionSeq {
		st.seq = n
	}
}

// restore re-registers a session under its previous identity at warm
// start. It refuses (false) when the id is already live or the table is
// full — restored state never displaces live state.
func (st *sessionStore) restore(id, name string, created time.Time, edits int64, sess *ssta.Session) bool {
	if id == "" {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, taken := st.sessions[id]; taken || len(st.sessions) >= st.max {
		return false
	}
	s := &srvSession{id: id, name: name, sess: sess, created: created}
	s.lastUsed = time.Now()
	s.edits = edits
	st.sessions[id] = s
	return true
}

// runSessionJanitor periodically evicts idle sessions until shutdown.
func (s *Server) runSessionJanitor(base context.Context) {
	defer s.wg.Done()
	interval := s.sessions.ttl / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-base.Done():
			return
		case now := <-tick.C:
			if ids := s.sessions.evictIdle(now); len(ids) > 0 {
				s.metrics.sessionsEvicted.Add(int64(len(ids)))
				for _, id := range ids {
					s.dropCheckpoint(id)
				}
			}
		}
	}
}

// view snapshots a session for the wire.
func (s *srvSession) view() SessionView {
	info := s.sess.Info()
	s.mu.Lock()
	lastUsed, edits := s.lastUsed, s.edits
	s.mu.Unlock()
	v := SessionView{
		ID: s.id, Name: s.name,
		Kind:       "flat",
		Verts:      info.Verts,
		Edges:      info.Edges,
		Edits:      edits,
		CreatedMS:  s.created.UnixMilli(),
		LastUsedMS: lastUsed.UnixMilli(),
	}
	if info.Hier {
		v.Kind = "hier"
	}
	v.RestoredFlat = info.RestoredFlat
	if info.Delay != nil {
		v.MeanPS = info.Delay.Mean()
		v.StdPS = info.Delay.Std()
		v.P9987PS = info.Delay.Quantile(0.99865)
	}
	if rep := s.sess.Sweep(); rep != nil {
		v.Sweep = sweepResponseView(s.name, rep)
	}
	return v
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	// A coordinator pins the session to a worker by subject fingerprint and
	// proxies the create; dispatch failure falls through to a local create
	// (degradation ladder) with the body restored.
	if s.cluster != nil && s.clusterSessionCreate(w, r) {
		return
	}
	s.createSession(w, r, "")
}

// createSession builds and registers a session. claimedID, when valid,
// is the id to register it under: a coordinator's allocation, which only
// WorkerService passes on.
func (s *Server) createSession(w http.ResponseWriter, r *http.Request, claimedID string) {
	var req SessionCreateRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := decodeJSONStrict(r, &req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	// Refuse a full table before paying the initial analysis, so a create
	// storm against a full table sheds load for free instead of burning
	// analysis slots on doomed work (the bound is re-checked at add, which
	// stays authoritative under concurrent creates).
	if s.sessions.full() {
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "session table full")
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), &AnalyzeRequest{TimeoutMS: req.TimeoutMS})
	defer cancel()
	// The full initial analysis holds an analysis slot like any other work.
	if !s.acquireSlot(ctx, w) {
		return
	}
	defer s.releaseSlot()

	start := time.Now()
	sess, name, err := s.buildSession(ctx, &req.ItemSpec)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.metrics.itemsRejected.Add(1)
			httpError(w, http.StatusRequestTimeout, err.Error())
			return
		}
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Scenarios) > 0 {
		if err := s.installSessionSweep(ctx, sess, req.Scenarios); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.metrics.itemsRejected.Add(1)
				httpError(w, http.StatusRequestTimeout, err.Error())
				return
			}
			s.metrics.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	var reg *srvSession
	if validSessionID(claimedID) {
		reg, err = s.sessions.addID(claimedID, name, sess)
	} else {
		reg, err = s.sessions.add(name, sess)
	}
	if err != nil {
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	s.metrics.sessionsCreated.Add(1)
	s.checkpointSession(reg.id)
	v := reg.view()
	v.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusCreated, v)
}

// installSessionSweep converts the create request's scenario specs and
// installs them as the session's active MCMM sweep. Swaps are rejected at
// conversion (sessions express swaps as edits), matching SetSweep's own
// contract.
func (s *Server) installSessionSweep(ctx context.Context, sess *ssta.Session, specs []SweepScenarioSpec) error {
	if len(specs) > s.cfg.MaxItems {
		return fmt.Errorf("request has %d scenarios, limit %d", len(specs), s.cfg.MaxItems)
	}
	scens := make([]ssta.Scenario, len(specs))
	for i := range specs {
		sc, err := s.convertScenario(ctx, &specs[i], false)
		if err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
		scens[i] = sc
	}
	opt := ssta.SweepOptions{Workers: s.cfg.Workers, OnScenarioDone: s.scenarioMetricsHook()}
	_, err := sess.SetSweep(ctx, scens, opt)
	return err
}

// buildSession constructs the ssta.Session for one item spec. Flat graphs
// come from the shared graph cache (the session clones them); quad designs
// come from the design cache (the session copies their structure), so the
// expensive artifacts — built graphs, extracted models — stay shared.
func (s *Server) buildSession(ctx context.Context, spec *ItemSpec) (*ssta.Session, string, error) {
	mode, err := spec.validate()
	if err != nil {
		return nil, "", err
	}
	name := spec.Name
	switch {
	case spec.Quad != nil:
		if spec.Clocked {
			return nil, "", fmt.Errorf("clocked applies to bench, netlist or mult items only")
		}
		d, err := s.quadDesign(ctx, spec.Quad)
		if err != nil {
			return nil, "", err
		}
		s.checkpointPrep(spec.Quad, mode)
		if name == "" {
			name = d.Name
		}
		sess, err := s.flow.NewDesignSession(ctx, d, mode, ssta.AnalyzeOptions{Workers: s.cfg.Workers})
		return sess, name, err
	case spec.Netlist != "":
		c, err := ssta.ParseBench(spec.Name, strings.NewReader(spec.Netlist))
		if err != nil {
			return nil, "", fmt.Errorf("netlist: %w", err)
		}
		if spec.Clocked {
			if c, err = ssta.Clocked(c); err != nil {
				return nil, "", fmt.Errorf("netlist: %w", err)
			}
		}
		g, _, err := s.flow.Graph(c)
		if err != nil {
			return nil, "", err
		}
		if name == "" {
			name = c.Name
		}
		sess, err := s.flow.NewGraphSession(ctx, g)
		return sess, name, err
	default:
		g, err := s.cachedGraph(ctx, spec.graphKey())
		if err != nil {
			return nil, "", err
		}
		if name == "" {
			if spec.Bench != "" {
				name = spec.Bench
			} else {
				name = fmt.Sprintf("mult%d", spec.Mult)
			}
		}
		sess, err := s.flow.NewGraphSession(ctx, g)
		return sess, name, err
	}
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.cluster != nil && s.clusterSessionProxy(w, r, id) {
		return
	}
	reg, ok := s.sessions.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	writeJSON(w, http.StatusOK, reg.view())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.cluster != nil && s.clusterSessionProxy(w, r, id) {
		return
	}
	if !s.sessions.remove(id) {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	s.metrics.sessionsDeleted.Add(1)
	s.dropCheckpoint(id)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true})
}

func (s *Server) handleSessionEdits(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.cluster != nil && s.clusterSessionProxy(w, r, id) {
		return
	}
	reg, ok := s.sessions.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session")
		return
	}
	var req SessionEditRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := decodeJSONStrict(r, &req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	if len(req.Edits) == 0 {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "request has no edits")
		return
	}
	if len(req.Edits) > s.cfg.MaxItems {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("request has %d edits, limit %d", len(req.Edits), s.cfg.MaxItems))
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), &AnalyzeRequest{TimeoutMS: req.TimeoutMS})
	defer cancel()

	// Take the analysis slot before converting edits: swap_module
	// materialization runs a graph build plus a full model extraction, and
	// the incremental re-analysis itself is still analysis — both must
	// respect the same global concurrency bound as everything else, or an
	// edit storm of distinct swaps would fan out unbounded extractions.
	if !s.acquireSlot(ctx, w) {
		return
	}
	defer s.releaseSlot()

	edits := make([]ssta.Edit, 0, len(req.Edits))
	for k := range req.Edits {
		e, err := s.convertEdit(ctx, reg.sess, &req.Edits[k])
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.metrics.itemsRejected.Add(1)
				httpError(w, http.StatusRequestTimeout, fmt.Sprintf("edit %d: %v", k, err))
				return
			}
			s.metrics.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, fmt.Sprintf("edit %d: %v", k, err))
			return
		}
		edits = append(edits, e)
	}

	reg.touch()
	if wantsEventStream(r) {
		if fl, ok := w.(http.Flusher); ok {
			s.streamEditApply(w, fl, ctx, cancel, reg, edits)
			return
		}
	}
	rep, err := reg.sess.Apply(ctx, edits)
	resp, status, msg, ok := s.settleEditBatch(reg, edits, rep, err)
	if !ok {
		httpError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// settleEditBatch is the post-Apply bookkeeping shared by the synchronous
// and streaming paths: error classification and metrics, applied-prefix
// accounting, checkpointing, and response assembly. On failure ok is false
// and (status, msg) describe the error.
func (s *Server) settleEditBatch(reg *srvSession, edits []ssta.Edit, rep *ssta.EditReport, err error) (resp SessionEditResponse, status int, msg string, ok bool) {
	if err != nil {
		status = applyErrorStatus(err)
		switch status {
		case http.StatusRequestTimeout:
			s.metrics.itemsRejected.Add(1)
		case http.StatusInternalServerError:
			s.metrics.internalErrors.Add(1)
		default:
			s.metrics.badRequests.Add(1)
		}
		msg = err.Error()
		if rep != nil && rep.Applied > 0 {
			// A failed batch is not nothing-happened: its valid prefix stays
			// applied (the library contract), so account those edits and tell
			// the client — resending the batch would double-apply the prefix.
			reg.mu.Lock()
			reg.edits += int64(rep.Applied)
			reg.mu.Unlock()
			s.metrics.editsApplied.Add(int64(rep.Applied))
			s.checkpointSession(reg.id) // the applied prefix is durable state
			msg = fmt.Sprintf("%s; %d of %d edits were applied and remain in effect", msg, rep.Applied, len(edits))
		}
		return SessionEditResponse{}, status, msg, false
	}
	reg.mu.Lock()
	reg.edits += int64(rep.Applied)
	reg.lastUsed = time.Now()
	reg.mu.Unlock()
	s.metrics.observeReanalysis(rep.Elapsed, rep.Applied)
	s.checkpointSession(reg.id)
	resp = SessionEditResponse{
		Applied:         rep.Applied,
		RecomputedVerts: rep.Recomputed,
		TotalVerts:      rep.TotalVerts,
		FullReprop:      rep.FullReprop,
		ElapsedMS:       float64(rep.Elapsed.Microseconds()) / 1000,
	}
	if rep.Delay != nil {
		resp.MeanPS = rep.Delay.Mean()
		resp.StdPS = rep.Delay.Std()
		resp.P9987PS = rep.Delay.Quantile(0.99865)
	}
	if rep.Sweep != nil {
		resp.Sweep = sweepResponseView(reg.name, rep.Sweep)
	}
	return resp, http.StatusOK, "", true
}

// streamEditApply is the SSE arm of POST /v1/sessions/{id}/edits: when the
// session carries an active sweep, each incrementally re-evaluated scenario
// streams out as a `scenario` event, followed by one `summary` event with
// the exact synchronous edit response. Apply failures after the stream
// opens arrive as an `error` event.
func (s *Server) streamEditApply(w http.ResponseWriter, fl http.Flusher, ctx context.Context, cancel context.CancelFunc, reg *srvSession, edits []ssta.Edit) {
	release := s.trackStream(cancel)
	defer release()

	n := 0
	if rep := reg.sess.Sweep(); rep != nil {
		n = len(rep.Results)
	}
	sse := &sseWriter{w: w, fl: fl}
	sse.start()

	// The observer runs on sweep worker goroutines with the session mutex
	// held; events cross a channel sized to the scenario count so the
	// observer never blocks on a slow client.
	events := make(chan SweepScenarioEvent, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			sse.event("scenario", ev)
		}
	}()
	rep, err := reg.sess.ApplyObserved(ctx, edits, func(i int, r *ssta.ScenarioResult) {
		events <- SweepScenarioEvent{Index: i, SweepScenarioResult: sweepScenarioView(r)}
	})
	close(events)
	<-done
	resp, status, msg, ok := s.settleEditBatch(reg, edits, rep, err)
	if !ok {
		sse.eventError(status, msg)
		return
	}
	sse.event("summary", resp)
}

// applyErrorStatus classifies a Session.Apply failure: cancellation maps to
// 408, a failed re-analysis (incremental update, full rebuild — server-side
// faults) to 500, and everything else — edit validation, a rejected module
// swap included — to 400.
func applyErrorStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusRequestTimeout
	}
	var re *ssta.ReanalysisError
	if errors.As(err, &re) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// convertEdit maps one wire edit onto the library edit type, materializing
// swap-in modules through the shared graph and extraction caches — only
// once sess is known to take module swaps, so a swap the session would
// reject never pays for a graph build and an extraction.
func (s *Server) convertEdit(ctx context.Context, sess *ssta.Session, e *EditSpec) (ssta.Edit, error) {
	switch strings.ToLower(e.Op) {
	case "scale_delay":
		return ssta.Edit{Op: ssta.EditScaleDelay, Edge: e.Edge, Scale: e.Scale}, nil
	case "set_nominal":
		return ssta.Edit{Op: ssta.EditSetNominal, Edge: e.Edge, Value: e.ValuePS}, nil
	case "add_edge":
		return ssta.Edit{Op: ssta.EditAddEdge, From: e.From, To: e.To, Value: e.ValuePS}, nil
	case "remove_edge":
		return ssta.Edit{Op: ssta.EditRemoveEdge, Edge: e.Edge}, nil
	case "set_net_delay":
		return ssta.Edit{Op: ssta.EditSetNetDelay, Net: e.Net, Value: e.ValuePS}, nil
	case "swap_module":
		if e.Instance == "" || e.Bench == "" {
			return ssta.Edit{}, fmt.Errorf("swap_module needs instance and bench")
		}
		if err := sess.CheckOp(ssta.EditSwapModule); err != nil {
			return ssta.Edit{}, err
		}
		mod, err := s.benchModule(ctx, e.Bench, e.Seed)
		if err != nil {
			return ssta.Edit{}, fmt.Errorf("swap_module: %w", err)
		}
		return ssta.Edit{Op: ssta.EditSwapModule, Instance: e.Instance, Module: mod}, nil
	default:
		return ssta.Edit{}, fmt.Errorf("unknown op %q (want scale_delay, set_nominal, add_edge, remove_edge, set_net_delay or swap_module)", e.Op)
	}
}

// acquireSlot takes an analysis slot under ctx, writing the 429 itself on
// failure and reporting whether the caller may proceed.
func (s *Server) acquireSlot(ctx context.Context, w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, fmt.Sprintf("no analysis slot: %v", ctx.Err()))
		return false
	}
}

func (s *Server) releaseSlot() { <-s.sem }
