package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Request is one planned request of a workload. Plans are pure data so the
// same seed provably yields the same request stream.
type Request struct {
	// Due is the send time as an offset from the open-loop phase start
	// (zero in the closed loop, where requests go back to back).
	Due time.Duration
	// Seq numbers the request in its generator's stream; Seq%sampleEvery
	// selects the deterministic sample checked against the oracle after
	// the phase.
	Seq int
	// Class groups requests of one kind (e.g. "analyze/c7552", "sweep",
	// "edit") for per-class span statistics.
	Class  string
	Method string
	// Path is the request path; "{id}" stands for the id of session
	// Session, known only after set-up.
	Path    string
	Session int
	Body    []byte
	// SSE asks for the text/event-stream form of the answer.
	SSE bool
	// Key names the expected answer in the workload's oracle table.
	Key string
}

// sampleEvery is the stride of the deterministic sample of expensive
// answers (sweeps) re-derived in-process after each phase.
const sampleEvery = 16

// outcome is what the client observed for one request.
type outcome struct {
	class string
	// lat is milliseconds from the due time to the checked body; +Inf for
	// a failed request, so failures count as missing any latency limit.
	lat float64
	ok  bool
	// fail names a failure: its kind (e.g. "status 408", "wrong answer")
	// and the first detail.
	fail failure
	// body is kept for requests of the oracle sample only.
	body []byte
	req  *Request
	// lag is how late the generator released the request after its due
	// time (ms); NaN in the closed loop.
	lag float64
	// queue is due -> send start (ms): the wait for a free connection.
	queue float64
	// traced marks a request sent with client spans.
	traced bool
	// Traced requests only (NaN otherwise): due -> connection, connection
	// -> request written, written -> first response byte, first byte ->
	// body read.
	connWait, ttfb, readBody float64
	done                     time.Time
}

// failure is one failed operation: a kind to count it under, the detail of
// the first of its kind, and whether the answer itself was wrong (as
// opposed to refused, late or lost).
type failure struct {
	kind, detail string
	wrong        bool
}

// checker validates one answer against the workload's oracle.
type checker func(r *Request, body []byte) error

// loadClient sends workload requests over at most conns keep-alive
// connections.
type loadClient struct {
	hc       *http.Client
	base     string
	ids      []string // session ids by index
	check    checker
	workload string
	// tr, when set, receives the spans of every other request (odd Seq), so
	// one open loop times traced and untraced requests side by side.
	tr     *tracer
	reqSeq atomic.Int64
}

// newHTTPClient returns a client whose transport keeps at most conns
// connections to the server, all reused across requests.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// send issues one request whose latency clock started at due, reads and
// checks the whole answer.
func (c *loadClient) send(ctx context.Context, r *Request, due time.Time, keep bool) outcome {
	o := outcome{class: r.Class, req: r, lag: math.NaN(), queue: ms(time.Since(due)),
		traced: c.tr != nil && r.Seq%2 == 1, connWait: math.NaN(), ttfb: math.NaN(), readBody: math.NaN()}
	fail := func(kind, detail string) outcome {
		o.lat, o.ok = math.Inf(1), false
		o.fail = failure{kind: r.Class + " " + kind, detail: detail, wrong: kind == "wrong answer"}
		o.done = time.Now()
		return o
	}
	path := r.Path
	if strings.Contains(path, "{id}") {
		if r.Session < 0 || r.Session >= len(c.ids) {
			return fail("no session", fmt.Sprint(r.Session))
		}
		path = strings.Replace(path, "{id}", c.ids[r.Session], 1)
	}
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, c.base+path, body)
	if err != nil {
		return fail("bad request", err.Error())
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.SSE {
		req.Header.Set("Accept", "text/event-stream")
	}
	// Trace hooks fire on the transport's goroutines, so they publish
	// their times (ns after due) atomically.
	var gotConn, wrote, first atomic.Int64
	var reqID string
	if o.traced {
		reqID = c.workload + "-" + strconv.FormatInt(c.reqSeq.Add(1), 10)
		req.Header.Set("X-Request-Id", reqID)
		stamp := func(a *atomic.Int64) { a.Store(int64(time.Since(due))) }
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { stamp(&gotConn) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { stamp(&wrote) },
			GotFirstResponseByte: func() { stamp(&first) },
		}))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fail("transport", err.Error())
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	read := time.Now()
	if err != nil {
		return fail("read body", err.Error())
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fail(fmt.Sprintf("status %d", resp.StatusCode), strings.TrimSpace(string(data)))
	}
	if err := c.check(r, data); err != nil {
		return fail("wrong answer", err.Error())
	}
	o.done = time.Now()
	o.ok = true
	o.lat = ms(o.done.Sub(due))
	if keep {
		o.body = data
	}
	if o.traced && gotConn.Load() > 0 && wrote.Load() > 0 && first.Load() > 0 {
		tConn := due.Add(time.Duration(gotConn.Load()))
		tWrote := due.Add(time.Duration(wrote.Load()))
		tFirst := due.Add(time.Duration(first.Load()))
		o.connWait, o.ttfb, o.readBody = ms(tConn.Sub(due)), ms(tFirst.Sub(tWrote)), ms(read.Sub(tFirst))
		root := c.tr.add(0, reqID, "req."+c.workload, due, o.done)
		c.tr.add(root, reqID, "client.conn_wait", due, tConn)
		c.tr.add(root, reqID, "client.write", tConn, tWrote)
		c.tr.add(root, reqID, "server.ttfb", tWrote, tFirst)
		c.tr.add(root, reqID, "client.read_body", tFirst, read)
		c.tr.add(root, reqID, "client.check", read, o.done)
	}
	return o
}

// openLoop sends reqs at their due times (offsets from now) over conns
// connections. One dispatcher wakes at every due time and queues the
// request; conns senders drain the queue. A request whose connections are
// all busy waits in line and its latency keeps counting from its due time,
// so a stall shows in every request queued behind it.
func (c *loadClient) openLoop(ctx context.Context, reqs []Request, conns int, keep func(*Request) bool) []outcome {
	out := make([]outcome, len(reqs))
	lag := make([]float64, len(reqs))
	// Start the schedule on a freshly collected heap, so no GC cycle of
	// the set-up's garbage runs inside it.
	runtime.GC()
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(reqs))
	// A short lead lets the dispatcher reach its first wait before the
	// first request falls due.
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		defer boostThread()()
		for i := range reqs {
			due := start.Add(reqs[i].Due)
			if !sleepUntil(ctx, due) {
				return
			}
			lag[i] = ms(time.Since(due))
			queue <- i
		}
	}()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &reqs[i]
				due := start.Add(r.Due)
				out[i] = c.send(ctx, r, due, keep(r))
				out[i].lag = lag[i]
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].req == nil {
				out[i] = outcome{class: reqs[i].Class, req: &reqs[i], lat: math.Inf(1), fail: failure{kind: "interrupted"}, lag: math.NaN(), queue: math.NaN()}
			}
		}
	}
	return out
}

// boostThread pins the calling goroutine to its OS thread and gives that
// thread real-time priority, so the dispatcher wakes on time even while
// the daemon keeps every CPU of the shared host busy: at equal priority
// the kernel lets it wait out the running thread's slice (2-4 ms here).
// The thread only sleeps and hands requests over, so it cannot starve
// anything. Real-time scheduling needs CAP_SYS_NICE; without it the
// thread falls back to nice -10, and failing that to normal priority,
// where the schedule may run late and the lag check flags the run. The
// returned function restores the thread before releasing it (a thread
// must not exit: children are started with a parent-death signal tied to
// their forking thread).
func boostThread() (restore func()) {
	runtime.LockOSThread()
	tid := syscall.Gettid()
	if setScheduler(tid, schedFIFO, 1) == nil {
		return func() {
			_ = setScheduler(tid, schedOther, 0) // lowering priority is always allowed
			runtime.UnlockOSThread()
		}
	}
	if syscall.Setpriority(syscall.PRIO_PROCESS, tid, -10) == nil {
		return func() {
			_ = syscall.Setpriority(syscall.PRIO_PROCESS, tid, 0) // as above
			runtime.UnlockOSThread()
		}
	}
	return runtime.UnlockOSThread
}

// Linux scheduling policies (sched_setscheduler(2)).
const (
	schedOther = 0
	schedFIFO  = 1
)

func setScheduler(tid, policy int, prio int32) error {
	param := struct{ priority int32 }{prio}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), uintptr(policy), uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		return errno
	}
	return nil
}

// sleepUntil blocks until t, or returns false once ctx is done. It sleeps
// with nanosleep(2): runtime timers wake up to a millisecond late on Linux
// (the poller's timeout granularity), which alone would make a 300 req/s
// schedule visibly late.
func sleepUntil(ctx context.Context, t time.Time) bool {
	for {
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// closedLoop keeps conns requests in flight back to back for dur, drawing
// them from next. It returns every outcome and the capacity: the median,
// over the phase's whole seconds, of requests completed successfully in
// that second. A median of seconds shrugs off the one second a daemon GC
// cycle or store flush lands in.
func (c *loadClient) closedLoop(ctx context.Context, next func() Request, conns int, dur time.Duration, keep func(*Request) bool) ([]outcome, float64) {
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for ctx.Err() == nil && time.Now().Before(deadline) {
				r := next()
				mine = append(mine, c.send(ctx, &r, time.Now(), keep(&r)))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	perSecond := make([]float64, max(int(dur/time.Second), 1))
	for i := range all {
		if k := int(all[i].done.Sub(start) / time.Second); all[i].ok && k < len(perSecond) {
			perSecond[k]++
		}
	}
	return all, median(perSecond) / min(dur.Seconds(), 1)
}
