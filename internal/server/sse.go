package server

import (
	"context"
	"net/http"
	"strings"

	"repro/ssta"
)

// Server-sent-events delivery: a client that asks for
// `Accept: text/event-stream` on POST /v1/sweep or POST
// /v1/sessions/{id}/edits gets per-scenario progress as the engine
// finishes each scenario, then one final summary that is byte-identical
// (modulo SSE framing) to the synchronous JSON answer.
//
// Streaming requests are never coalesced or micro-batched: the stream is
// the caller's private progress channel, so sharing an execution would
// interleave foreign event orders. Validation and admission errors raised
// before the first event still travel as plain JSON status codes; once the
// stream is open, failures arrive as an `error` event.
//
// Shutdown ordering: every live stream registers in Server.streamWG and
// ties its context to the server's base context, so SIGTERM cancels the
// in-flight sweep (per-scenario cancellation errors stream out), the
// handler emits its final event and returns, and Close drains streamWG
// before the durable store's final flush — no stream outlives persistence.

// wantsEventStream reports whether the client negotiated SSE delivery.
func wantsEventStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// SweepScenarioEvent is the payload of one `scenario` SSE event: the
// finished scenario's result plus its index in the request's scenario list
// (events arrive in completion order, not request order).
type SweepScenarioEvent struct {
	Index int `json:"index"`
	SweepScenarioResult
}

// sseWriter frames events onto a flushable response.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// start switches the response to an event stream. Must be called before
// any event; once called, status codes can no longer change.
func (e *sseWriter) start() {
	h := e.w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	e.w.WriteHeader(http.StatusOK)
	e.fl.Flush()
}

// event frames one named event. The payload is the same encoder as the
// synchronous JSON path (encodeJSON), so a summary event's data line is
// byte-identical to the sync response body. A payload that does not
// encode goes out as an error event instead.
func (e *sseWriter) event(name string, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		e.eventError(http.StatusInternalServerError, "encoding the "+name+" event: "+err.Error())
		return
	}
	// encodeJSON ends with exactly one newline and (compact encoding)
	// contains none internally, so a single data line frames it.
	e.w.Write([]byte("event: " + name + "\ndata: "))
	e.w.Write(body)
	e.w.Write([]byte("\n"))
	e.fl.Flush()
}

// eventError frames a failure that happened after the stream opened, with
// the same body shape httpError would have sent.
func (e *sseWriter) eventError(status int, msg string) {
	e.w.Write([]byte("event: error\ndata: "))
	e.w.Write(errorBody(status, msg))
	e.w.Write([]byte("\n"))
	e.fl.Flush()
}

// trackStream registers a live stream for shutdown draining and ties ctx
// to the server's base context so SIGTERM cancels in-flight work. The
// returned release must be deferred.
func (s *Server) trackStream(cancel context.CancelFunc) (release func()) {
	s.streamWG.Add(1)
	s.metrics.streaming.Add(1)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return func() {
		stop()
		s.metrics.streaming.Add(-1)
		s.streamWG.Done()
	}
}

// streamSweep is the SSE arm of POST /v1/sweep: one `scenario` event per
// finished scenario (completion order), then one `summary` event carrying
// the exact synchronous SweepResponse.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, req *SweepRequest, specs []SweepScenarioSpec) {
	ctx, cancel := s.requestCtx(r.Context(), &AnalyzeRequest{TimeoutMS: req.TimeoutMS})
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		// Transport cannot flush incrementally; serve the sync answer.
		status, body := s.doSweep(ctx, req, specs)
		writeRaw(w, status, body)
		return
	}
	release := s.trackStream(cancel)
	defer release()

	// Admission and validation run before the stream opens, so their
	// failures keep real status codes.
	if err := s.acquireSlotWait(ctx, 0); err != nil {
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	defer s.releaseSlot()

	// The executor runs on its own goroutine and its hooks on sweep worker
	// goroutines, while the response writer is not concurrency-safe: a nil
	// event (the executor is ready to run) opens the stream and every
	// result follows as an event, all written by this handler. The channel
	// holds every scenario plus that marker, so no hook ever blocks on a
	// slow client.
	events := make(chan *SweepScenarioEvent, len(specs)+1)
	metricsHook := s.scenarioMetricsHook()
	a := req.analysis(specs, func(i int, res *ssta.ScenarioResult) {
		metricsHook(i, res)
		events <- &SweepScenarioEvent{Index: i, SweepScenarioResult: sweepScenarioView(res)}
	})
	a.progress = true
	a.ready = func() { events <- nil }
	var x *execution
	var err error
	go func() {
		defer close(events)
		x, err = s.execute(ctx, a)
	}()
	var sse *sseWriter
	for ev := range events {
		if ev == nil {
			sse = &sseWriter{w: w, fl: fl}
			sse.start()
			continue
		}
		sse.event("scenario", ev)
	}
	status, body := http.StatusOK, []byte(nil)
	if err != nil {
		status, body = s.sweepFailure(err)
	}
	switch {
	case sse == nil:
		writeRaw(w, status, body)
	case err != nil:
		sse.eventError(status, err.Error())
	default:
		sse.event("summary", sweepResponseView(x.name, x.rep))
	}
}
