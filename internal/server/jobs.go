package server

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Job states.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobView is the wire representation of an async job.
type JobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// QueuePosition is the number of jobs ahead of this one (queued only).
	QueuePosition int              `json:"queue_position,omitempty"`
	Error         string           `json:"error,omitempty"`
	Result        *AnalyzeResponse `json:"result,omitempty"`
	CreatedMS     int64            `json:"created_unix_ms"`
	ElapsedMS     float64          `json:"elapsed_ms,omitempty"`
}

// job is one async analysis: submitted over POST /v1/jobs, executed by the
// job workers, polled over GET /v1/jobs/{id}.
type job struct {
	id      string
	seq     int64
	req     AnalyzeRequest
	status  string
	err     string
	result  *AnalyzeResponse
	created time.Time
	started time.Time
	ended   time.Time
	cancel  context.CancelFunc // non-nil only while running
}

// jobStore is the bounded in-memory job registry. The queue is a
// mutex-guarded FIFO slice (not a channel) so cancelling a queued job
// reclaims its capacity immediately; wake is a buffered signal channel the
// workers block on. Finished jobs are evicted oldest-first beyond
// maxFinished.
type jobStore struct {
	mu       sync.Mutex
	jobs     map[string]*job
	seq      int64
	pending  []*job // FIFO of queued jobs
	depth    int    // admission bound on len(pending)
	wake     chan struct{}
	maxJobs  int // retained finished jobs
	running  int
	finished int64
}

func newJobStore(queueDepth, maxFinished int) *jobStore {
	if queueDepth <= 0 {
		queueDepth = 64
	}
	if maxFinished <= 0 {
		maxFinished = 256
	}
	return &jobStore{
		jobs:    make(map[string]*job),
		depth:   queueDepth,
		wake:    make(chan struct{}, queueDepth),
		maxJobs: maxFinished,
	}
}

// submit enqueues a new job, failing when the queue is full (bounded
// admission: the caller maps this to 503 + Retry-After).
func (st *jobStore) submit(req AnalyzeRequest) (*job, error) {
	st.mu.Lock()
	if len(st.pending) >= st.depth {
		n := len(st.pending)
		st.mu.Unlock()
		return nil, fmt.Errorf("job queue full (%d queued)", n)
	}
	st.seq++
	j := &job{
		id:      fmt.Sprintf("job-%d", st.seq),
		seq:     st.seq,
		req:     req,
		status:  JobQueued,
		created: time.Now(),
	}
	st.pending = append(st.pending, j)
	st.jobs[j.id] = j
	st.evictLocked()
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default: // a wake is already pending; a worker will drain the queue
	}
	return j, nil
}

// pop removes the next queued job, or nil when the queue is empty (a
// spurious wake after a cancellation).
func (st *jobStore) pop() *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pending) == 0 {
		return nil
	}
	j := st.pending[0]
	st.pending = st.pending[1:]
	return j
}

// evictLocked drops the oldest finished jobs beyond the retention bound so
// an abandoned poller cannot pin results forever.
func (st *jobStore) evictLocked() {
	var done []*job
	for _, j := range st.jobs {
		if j.status == JobDone || j.status == JobFailed || j.status == JobCancelled {
			done = append(done, j)
		}
	}
	if len(done) <= st.maxJobs {
		return
	}
	sort.Slice(done, func(a, b int) bool { return done[a].seq < done[b].seq })
	for _, j := range done[:len(done)-st.maxJobs] {
		delete(st.jobs, j.id)
	}
}

// view snapshots a job for the wire.
func (st *jobStore) view(id string) (JobView, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return JobView{}, false
	}
	v := JobView{
		ID: j.id, Status: j.status, Error: j.err, Result: j.result,
		CreatedMS: j.created.UnixMilli(),
	}
	if !j.ended.IsZero() && !j.started.IsZero() {
		v.ElapsedMS = float64(j.ended.Sub(j.started).Microseconds()) / 1000
	}
	if j.status == JobQueued {
		for _, o := range st.pending {
			if o.seq < j.seq {
				v.QueuePosition++
			}
		}
	}
	return v, true
}

// JobSummary is one row of GET /v1/jobs: identity and state only — polling
// a specific id is how a client gets the result payload.
type JobSummary struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	CreatedMS int64  `json:"created_unix_ms"`
}

// list snapshots up to limit job summaries, newest first.
func (st *jobStore) list(limit int) []JobSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	all := make([]*job, 0, len(st.jobs))
	for _, j := range st.jobs {
		all = append(all, j)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq > all[b].seq })
	if len(all) > limit {
		all = all[:limit]
	}
	out := make([]JobSummary, len(all))
	for i, j := range all {
		out[i] = JobSummary{ID: j.id, Status: j.status, CreatedMS: j.created.UnixMilli()}
	}
	return out
}

// cancelJob cancels a queued or running job. A queued job is removed from
// the pending FIFO immediately — its queue capacity is reclaimed on the
// spot; a running job is cancelled through its context and marked by the
// worker once the batch unwinds. terminal reports that the job had already
// finished — the cancel was a no-op (repeat DELETEs are idempotent).
func (st *jobStore) cancelJob(id string) (v JobView, terminal, ok bool) {
	st.mu.Lock()
	j, ok := st.jobs[id]
	if !ok {
		st.mu.Unlock()
		return JobView{}, false, false
	}
	terminal = j.status == JobDone || j.status == JobFailed || j.status == JobCancelled
	cancel := j.cancel
	if j.status == JobQueued {
		j.status = JobCancelled
		j.ended = time.Now()
		for k, o := range st.pending {
			if o == j {
				st.pending = append(st.pending[:k], st.pending[k+1:]...)
				break
			}
		}
		st.finished++ // terminal without ever reaching a worker
		st.evictLocked()
	}
	st.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	v, _ = st.view(id)
	return v, terminal, true
}

// counts samples the queue gauges for /metrics.
func (st *jobStore) counts() (queued, running int, finished int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.pending), st.running, st.finished
}

// runJobs is a job-worker loop: it drains the queue until the server shuts
// down. Each worker runs one job at a time; the analysis itself fans out
// per the request's workers knob and still passes through the same
// admission semaphore as sync requests, so total analysis concurrency stays
// bounded no matter how the work arrives.
func (s *Server) runJobs(base context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-base.Done():
			return
		case <-s.jobs.wake:
			// A wake may be spurious (its job was cancelled while queued);
			// pop returns nil then and the worker just goes back to sleep.
			if j := s.jobs.pop(); j != nil {
				s.runJob(base, j)
			}
		}
	}
}

func (s *Server) runJob(base context.Context, j *job) {
	// Jobs honor the same per-request deadline knob as sync requests, on
	// top of explicit DELETE cancellation.
	ctx, cancel := s.requestCtx(base, &j.req)
	defer cancel()

	st := s.jobs
	st.mu.Lock()
	if j.status != JobQueued { // cancelled while queued
		st.mu.Unlock()
		return
	}
	j.status = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	st.running++
	st.mu.Unlock()

	resp, err := s.analyzeItems(ctx, &j.req, 0, false)

	st.mu.Lock()
	j.ended = time.Now()
	j.cancel = nil
	j.result = resp // keep partial per-item results even when cancelled
	cancelled := ctx.Err() != nil && base.Err() == nil
	switch {
	case err != nil && cancelled:
		j.status = JobCancelled
		j.err = ctx.Err().Error() // DELETE -> canceled, timeout_ms -> deadline exceeded
	case err != nil:
		j.status = JobFailed
		j.err = err.Error()
	case cancelled && hasContextItemError(resp):
		// The batch was genuinely cut short. A ctx that fired only after
		// every item completed must not demote a finished job.
		j.status = JobCancelled
		j.err = ctx.Err().Error()
	default:
		j.status = JobDone
	}
	st.running--
	st.finished++
	st.evictLocked()
	st.mu.Unlock()
}

// hasContextItemError reports whether any item of the response was cut off
// by cancellation or a deadline.
func hasContextItemError(resp *AnalyzeResponse) bool {
	if resp == nil {
		return true
	}
	for _, r := range resp.Results {
		if strings.Contains(r.Error, context.Canceled.Error()) ||
			strings.Contains(r.Error, context.DeadlineExceeded.Error()) {
			return true
		}
	}
	return false
}
