package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/ssta"
)

// This file is the coalescing/batching front of the request path: every
// synchronous analysis flows through here on its way to the executor. Two
// layers, both keyed by the canonical fingerprints of fingerprint.go:
//
//  1. The coalescer is an in-flight singleflight table over full request
//     fingerprints: identical concurrent /v1/analyze and /v1/sweep requests
//     attach to one execution and share its response bytes verbatim. The
//     graph cache dedupes *completed* work; this dedupes work that is
//     still running.
//  2. The micro-batcher gathers *compatible* seats — same analysis subject
//     (ItemFingerprint) and mode, different scenarios — within a
//     size/latency window (Config.BatchMax / Config.BatchWindow) and
//     answers them all from ONE execution, splitting the report back per
//     caller. Each analyze item takes a seat as the identity scenario.
//
// Admission accounting is per-execution: one coalesced or batched
// execution holds one analysis slot no matter how many callers it answers.
// Coalescing is always on (it is pure dedup); batching is opt-in via
// Config.BatchWindow because it trades first-request latency for
// throughput.

// flight is one in-flight coalesced execution. The leader runs it and
// publishes the response; followers wait on done and replay the bytes.
// refs counts attached callers; when the last one departs before the
// result lands, execCancel aborts the execution.
type flight struct {
	fp         Fingerprint
	done       chan struct{}
	status     int
	body       []byte
	refs       int
	published  bool
	execCancel context.CancelFunc
}

// coalescer is the in-flight singleflight table.
type coalescer struct {
	mu      sync.Mutex
	flights map[Fingerprint]*flight
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[Fingerprint]*flight)}
}

// join attaches to the in-flight execution for fp, creating it when none
// exists. The second result is true for the leader (creator).
func (c *coalescer) join(fp Fingerprint) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[fp]; ok {
		f.refs++
		return f, false
	}
	f := &flight{fp: fp, done: make(chan struct{}), refs: 1}
	c.flights[fp] = f
	return f, true
}

// leave detaches one caller. When the last caller leaves an unpublished
// flight, the execution is cancelled — nobody is waiting for its result.
func (c *coalescer) leave(f *flight) {
	c.mu.Lock()
	f.refs--
	abort := f.refs == 0 && !f.published
	cancel := f.execCancel
	c.mu.Unlock()
	if abort && cancel != nil {
		cancel()
	}
}

// publish records the response and releases every waiter. The flight
// leaves the table first, so late identical requests start fresh —
// coalescing shares in-flight work only, never stale results.
func (c *coalescer) publish(f *flight, status int, body []byte) {
	c.mu.Lock()
	f.status, f.body = status, body
	f.published = true
	delete(c.flights, f.fp)
	c.mu.Unlock()
	close(f.done)
}

// inFlight samples the table size for /metrics.
func (c *coalescer) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

// serveCoalesced funnels one synchronous request through the coalescer:
// followers of an identical in-flight request wait for its bytes; the
// leader runs exec under a context that is detached from any single client
// (derived from the server lifetime plus the request deadline) and
// cancelled only when every attached caller has disconnected.
func (s *Server) serveCoalesced(w http.ResponseWriter, r *http.Request, endpoint string, fp Fingerprint, timeoutMS int64, exec func(ctx context.Context) (int, []byte)) {
	f, leader := s.coalesce.join(fp)
	if !leader {
		s.metrics.coalesceHit(endpoint)
		defer s.coalesce.leave(f)
		select {
		case <-f.done:
			writeRaw(w, f.status, f.body)
		case <-r.Context().Done():
			// Client gone; the execution continues for the other callers.
		}
		return
	}
	execCtx, execCancel := s.requestCtx(s.baseCtx, &AnalyzeRequest{TimeoutMS: timeoutMS})
	defer execCancel()
	f.execCancel = execCancel
	// The leader's own departure is tracked like a follower's: if its
	// client disconnects mid-execution while followers remain, the work
	// keeps running for them.
	stop := context.AfterFunc(r.Context(), func() { s.coalesce.leave(f) })
	status, body := exec(execCtx)
	s.coalesce.publish(f, status, body)
	if stop() {
		s.coalesce.leave(f)
	}
	writeRaw(w, status, body)
}

// batchKey groups compatible requests: same analysis subject, same
// correlation mode. Scheduling knobs (workers, timeout) deliberately stay
// out — they do not change results, and the batch runs under the most
// generous of its callers' settings.
type batchKey struct {
	subject Fingerprint
	mode    ssta.Mode
}

// batchKeyOf validates a subject spec and keys its group. An invalid spec
// has no group: it fails before any execution.
func batchKeyOf(spec *ItemSpec) (batchKey, error) {
	mode, err := spec.validate()
	return batchKey{subject: ItemFingerprint(spec), mode: mode}, err
}

// batchCall is one caller's seat in a micro-batch.
type batchCall struct {
	name string // caller's display name ("" = subject default)
	// specs are a sweep caller's scenarios; nil seats an analyze item, the
	// identity scenario.
	specs       []SweepScenarioSpec
	extract     bool
	topK        int
	workers     int
	itemWorkers int
	timeout     time.Duration   // effective deadline contribution to the group
	ctx         context.Context // caller-side context (departure tracking)
	done        chan struct{}
	ans         batchAnswer
	unionIdx    []int // caller scenario k -> union scenario index
}

// batchAnswer is what a seat gets back. A sweep caller gets its rendered
// response; an analyze item gets the execution and the index of its
// scenario in it, or the error that stopped it, and assembles its result
// like an unbatched item. status 429 means the group was refused a slot.
type batchAnswer struct {
	status int
	body   []byte
	x      *execution
	idx    int
	err    error
}

// batchGroup is one gathering micro-batch.
type batchGroup struct {
	key     batchKey
	spec    ItemSpec // subject (Name cleared); first caller's wording
	calls   []*batchCall
	timer   *time.Timer
	flushed bool
}

// batcher gathers compatible requests and flushes them onto one
// shared-prep execution when the group reaches max callers or the window
// expires, whichever comes first.
type batcher struct {
	s      *Server
	mu     sync.Mutex
	groups map[batchKey]*batchGroup
	max    int
	window time.Duration
}

func newBatcher(s *Server, max int, window time.Duration) *batcher {
	if max <= 1 {
		max = 8
	}
	return &batcher{s: s, groups: make(map[batchKey]*batchGroup), max: max, window: window}
}

// do enqueues one call and blocks until the group's execution answers it
// (or the caller's context dies first — the group then continues for the
// others and this answer is dropped).
func (b *batcher) do(ctx context.Context, key batchKey, spec ItemSpec, call *batchCall) batchAnswer {
	call.ctx = ctx
	call.done = make(chan struct{})
	b.s.metrics.batchRequests.Add(1)
	b.mu.Lock()
	g, ok := b.groups[key]
	if !ok {
		spec.Name = ""
		g = &batchGroup{key: key, spec: spec}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.flush(g, "deadline") })
	}
	g.calls = append(g.calls, call)
	full := len(g.calls) >= b.max
	b.mu.Unlock()
	if full {
		b.flush(g, "size")
	}
	select {
	case <-call.done:
		return call.ans
	case <-ctx.Done():
		// Late result may have raced the cancellation; prefer it.
		select {
		case <-call.done:
			return call.ans
		default:
		}
		err := fmt.Errorf("request expired before its micro-batch completed: %w", ctx.Err())
		if call.specs == nil {
			return batchAnswer{err: err}
		}
		return batchAnswer{status: http.StatusRequestTimeout, body: errorBody(http.StatusRequestTimeout, err.Error())}
	}
}

// flush detaches the group from the gathering table and runs it. Exactly
// one flush wins (size and deadline can race); the execution runs on its
// own goroutine so neither the timer goroutine nor a caller blocks on it.
func (b *batcher) flush(g *batchGroup, reason string) {
	b.mu.Lock()
	if g.flushed {
		b.mu.Unlock()
		return
	}
	g.flushed = true
	delete(b.groups, g.key)
	if g.timer != nil {
		g.timer.Stop()
	}
	calls := g.calls
	b.mu.Unlock()
	b.s.metrics.batchFlush(reason)
	go b.run(g.spec, calls)
}

// gathering samples the number of groups currently open for /metrics.
func (b *batcher) gathering() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.groups)
}

// run executes one flushed micro-batch: dedupe scenarios across callers,
// take ONE admission slot, run ONE shared-prep execution, and split the
// report back per caller.
func (b *batcher) run(spec ItemSpec, calls []*batchCall) {
	s, m := b.s, b.s.metrics
	m.batchExecutions.Add(1)
	m.batchOccSum.Add(int64(len(calls)))
	publish := func(c *batchCall, ans batchAnswer) {
		c.ans = ans
		close(c.done)
	}

	// Union of distinct scenario transforms across callers, content-keyed:
	// two callers naming the same knobs differently share one evaluation.
	// Union scenarios carry opaque internal names; caller-facing names are
	// rewritten at reassembly. swept marks the union scenarios some sweep
	// caller asked for: only those count as sweep scenarios, while analyze
	// items count as items.
	var union []SweepScenarioSpec
	var swept []bool
	index := make(map[Fingerprint]int)
	total := 0
	a := &analysis{spec: spec}
	dur := time.Duration(0)
	for _, c := range calls {
		specs := c.specs
		if specs == nil {
			specs = identitySpec
		}
		c.unionIdx = make([]int, len(specs))
		for k := range specs {
			total++
			fp := ScenarioFingerprint(&specs[k])
			u, ok := index[fp]
			if !ok {
				u = len(union)
				index[fp] = u
				sp := specs[k]
				sp.Name = fmt.Sprintf("u%d", u)
				union = append(union, sp)
				swept = append(swept, false)
			}
			swept[u] = swept[u] || c.specs != nil
			c.unionIdx[k] = u
		}
		a.extract = a.extract || c.extract
		a.workers = max(a.workers, c.workers)
		a.itemWorkers = max(a.itemWorkers, c.itemWorkers)
		dur = max(dur, c.timeout)
	}
	m.scenariosDeduped.Add(int64(total - len(union)))

	// Group execution context: the server's lifetime bounded by the most
	// generous caller deadline, cancelled early when every caller departs.
	ctx, cancel := context.WithTimeout(s.baseCtx, dur)
	defer cancel()
	var refs atomic.Int64
	refs.Store(int64(len(calls)))
	for _, c := range calls {
		context.AfterFunc(c.ctx, func() {
			if refs.Add(-1) == 0 {
				cancel()
			}
		})
	}

	// ONE admission slot covers the whole batch — this is the accounting
	// shift from per-request to per-execution.
	if err := s.acquireSlotWait(ctx, s.admissionWait(ctx)); err != nil {
		for _, c := range calls {
			if c.specs != nil {
				m.rejected.Add(1)
			}
			publish(c, batchAnswer{status: http.StatusTooManyRequests, body: errorBody(http.StatusTooManyRequests, err.Error()), err: err})
		}
		return
	}
	defer s.releaseSlot()

	hook := s.scenarioMetricsHook()
	a.onScenario = func(i int, r *ssta.ScenarioResult) {
		if swept[i] {
			hook(i, r)
		}
	}
	for {
		a.specs = union
		x, err := s.execute(ctx, a)
		var bad *scenario.ScenarioError
		if !errors.As(err, &bad) {
			for _, c := range calls {
				publish(c, s.answerCall(c, x, err))
			}
			return
		}
		// A scenario that fails to materialize fails only the callers that
		// asked for it; the rest of the batch runs again without it.
		var keep []*batchCall
		for _, c := range calls {
			if k := slices.Index(c.unionIdx, bad.Index); k >= 0 {
				publish(c, s.answerCall(c, nil, &scenario.ScenarioError{Index: k, Err: bad.Err}))
				continue
			}
			for k, u := range c.unionIdx {
				if u > bad.Index {
					c.unionIdx[k] = u - 1
				}
			}
			keep = append(keep, c)
		}
		union = slices.Delete(union, bad.Index, bad.Index+1)
		swept = slices.Delete(swept, bad.Index, bad.Index+1)
		if calls = keep; len(calls) == 0 {
			return
		}
	}
}

// answerCall splits a batch execution's outcome back to one caller. A
// sweep caller gets caller-local scenario names and order and a
// caller-local envelope and divergence ranking, recomputed over exactly
// its scenarios, so the response matches a solo request.
func (s *Server) answerCall(c *batchCall, x *execution, err error) batchAnswer {
	if c.specs == nil {
		if err != nil {
			return batchAnswer{err: err}
		}
		return batchAnswer{x: x, idx: c.unionIdx[0]}
	}
	if err != nil {
		status, body := s.sweepFailure(err)
		return batchAnswer{status: status, body: body}
	}
	results := make([]ssta.ScenarioResult, len(c.specs))
	for k, u := range c.unionIdx {
		r := x.rep.Results[u]
		r.Name = c.specs[k].Name
		if r.Name == "" {
			r.Name = fmt.Sprintf("scenario-%d", k)
		}
		results[k] = r
	}
	rep := scenario.NewReport(results, scenario.Options{TopK: c.topK})
	rep.Top, rep.TopVerts, rep.TopEdges = x.rep.Top, x.rep.TopVerts, x.rep.TopEdges
	rep.Elapsed = x.rep.Elapsed
	name := c.name
	if name == "" {
		name = x.name
	}
	status, body := jsonAnswer(http.StatusOK, sweepResponseView(name, rep))
	return batchAnswer{status: status, body: body}
}

// scenarioMetricsHook is the shared per-scenario accounting of every sweep
// execution: deadline-cut scenarios are rejections, not latency samples.
func (s *Server) scenarioMetricsHook() func(int, *ssta.ScenarioResult) {
	return func(_ int, res *ssta.ScenarioResult) {
		if errorKind(res.Err) != "" {
			s.metrics.scenariosRejected.Add(1)
			return
		}
		s.metrics.observeScenario(res.Elapsed, res.Err != nil)
	}
}

// effectiveTimeout resolves the timeout_ms knob against server defaults
// and the clamp — the same arithmetic as requestCtx, without the context.
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// admissionWait is the sync-path slot-wait bound: the configured
// AdmissionWait, or half the remaining deadline so an overloaded server
// sheds load instead of queueing work that will blow its deadline anyway.
func (s *Server) admissionWait(ctx context.Context) time.Duration {
	if s.cfg.AdmissionWait > 0 {
		return s.cfg.AdmissionWait
	}
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl) / 2
	}
	return 0
}

// acquireSlotWait takes an analysis slot under ctx, additionally bounded
// by wait when positive. The error wraps the context cause.
func (s *Server) acquireSlotWait(ctx context.Context, wait time.Duration) error {
	admit := ctx
	if wait > 0 {
		var cancel context.CancelFunc
		admit, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-admit.Done():
		return fmt.Errorf("no analysis slot: %w", admit.Err())
	}
}

// encodeJSON renders v the one way every JSON answer is rendered (no HTML
// escaping, trailing newline), so coalesced followers replay
// byte-identical bodies and an SSE data line equals the sync body.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jsonAnswer is the answer carrying v with the given status, or a 500 with
// an error body when v does not encode (a NaN or infinite statistic): an
// answer never goes out as an empty 2xx.
func jsonAnswer(status int, v any) (int, []byte) {
	body, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body = errorBody(status, "encoding the answer: "+err.Error())
	}
	return status, body
}

// errorBody is the byte form of httpError's payload.
func errorBody(code int, msg string) []byte {
	body, _ := encodeJSON(map[string]string{"error": msg, "status": strconv.Itoa(code)}) // strings always encode
	return body
}

// writeRaw writes a prerendered JSON response, carrying the Retry-After
// hint on overload statuses like the direct handlers do.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
