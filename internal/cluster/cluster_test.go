package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startWorker serves h on an httptest server and returns its address plus
// a stop function that closes the listener and every connection.
func startWorker(t *testing.T, h http.Handler) (string, func()) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), ts.Close
}

// pingMux answers the pool's health check.
func pingMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(PingMethod, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	return mux
}

func waitHealthy(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.Healthy()) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("pool never reached %d healthy nodes (have %d)", want, len(p.Healthy()))
}

func TestPoolHealthAndFailover(t *testing.T) {
	addrA, stopA := startWorker(t, pingMux())
	addrB, _ := startWorker(t, pingMux())

	p := NewPool(PoolConfig{
		Addrs:        []string{addrA, addrB},
		PingInterval: 20 * time.Millisecond,
		PingTimeout:  time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	defer p.Close()

	waitHealthy(t, p, 2)

	// Placement is deterministic and lands on a healthy node.
	n1 := p.Pick([]byte("some-graph-fingerprint"))
	n2 := p.Pick([]byte("some-graph-fingerprint"))
	if n1 == nil || n1 != n2 {
		t.Fatalf("placement unstable: %v vs %v", n1, n2)
	}

	// Kill one worker; the pool demotes it and placement moves over.
	stopA()
	waitHealthy(t, p, 1)
	if got := p.Pick([]byte("some-graph-fingerprint")); got == nil || got.Addr() != addrB {
		t.Fatalf("placement after death: %v", got)
	}
	if p.NodeByAddr(addrA).Healthy() {
		t.Fatal("dead node still healthy")
	}
}

func TestPoolDoCountsAndDemotes(t *testing.T) {
	var served atomic.Int64
	mux := pingMux()
	mux.HandleFunc("POST /job", func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte("done"))
	})
	mux.HandleFunc("POST /boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "kaput", http.StatusInternalServerError)
	})
	addr, stop := startWorker(t, mux)

	p := NewPool(PoolConfig{
		Addrs:        []string{addr},
		PingInterval: 20 * time.Millisecond,
		PingTimeout:  time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	defer p.Close()
	waitHealthy(t, p, 1)

	n := p.Nodes()[0]
	res, err := p.Do(context.Background(), n, "POST /job", nil, nil)
	if err != nil || string(res) != "done" {
		t.Fatalf("do: %v %q", err, res)
	}
	if n.Dispatches.Load() == 0 || served.Load() != 1 {
		t.Fatalf("dispatch accounting: %d sent, %d served", n.Dispatches.Load(), served.Load())
	}

	// A worker's non-2xx answer is the request's problem, not the node's.
	_, err = p.Do(context.Background(), n, "POST /boom", []byte("{}"), nil)
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusInternalServerError || !strings.Contains(string(status.Body), "kaput") {
		t.Fatalf("non-2xx answer: %v", err)
	}
	if n.Errors.Load() != 0 || !n.Healthy() {
		t.Fatalf("non-2xx answer counted as a transport failure: %d errors, healthy %v", n.Errors.Load(), n.Healthy())
	}

	stop()
	waitHealthy(t, p, 0)
	if _, err := p.Do(context.Background(), n, "POST /job", nil, nil); err == nil {
		t.Fatal("dispatch to dead node succeeded")
	}
	if n.Errors.Load() == 0 {
		t.Fatal("transport error not counted")
	}
}

func TestFaultDialerDropAndTear(t *testing.T) {
	mux := pingMux()
	mux.HandleFunc("POST /job", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	addr, _ := startWorker(t, mux)
	base := func(ctx context.Context, a string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", a)
	}
	// Every case dials afresh: a failed exchange kills its connection, so
	// the transport never reuses it.
	fd := NewFaultDialer(base, FaultConfig{TearAtWrite: 1})
	p := NewPool(PoolConfig{Addrs: []string{addr}, Dial: fd.Dial})
	defer p.Close()
	n := p.Nodes()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Torn request: the first write is cut halfway and the connection
	// closes, so the exchange fails.
	if _, err := p.Do(ctx, n, "POST /job", []byte("x"), nil); err == nil {
		t.Fatal("exchange over torn connection succeeded")
	}

	// Dropped connection after the request is written: the response
	// never arrives and the exchange fails.
	fd.SetConfig(FaultConfig{DropAfterWrites: 1})
	if _, err := p.Do(ctx, n, "POST /job", []byte("x"), nil); err == nil {
		t.Fatal("exchange over dropped connection succeeded")
	}

	// Latency injection slows but does not break the exchange.
	fd.SetConfig(FaultConfig{WriteLatency: 5 * time.Millisecond})
	start := time.Now()
	if _, err := p.Do(ctx, n, "POST /job", []byte("x"), nil); err != nil {
		t.Fatalf("latent exchange: %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("latency not injected")
	}
	if dials, writes := fd.Counters(); dials != 3 || writes == 0 {
		t.Fatalf("fault counters: %d dials %d writes", dials, writes)
	}
	if n.Errors.Load() != 2 {
		t.Fatalf("transport errors = %d, want 2 (torn, dropped)", n.Errors.Load())
	}
}

// TestDoEventsBeforeFinalBody: an event-stream answer reaches onEvent one
// event at a time, in order, while the worker is still writing it, and
// the returned body is the stream's last event.
func TestDoEventsBeforeFinalBody(t *testing.T) {
	seen := make(chan int, 3)
	mux := pingMux()
	mux.HandleFunc("POST /stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "event: scenario\ndata: {\"i\":%d}\n\n", i)
			fl.Flush()
			// The next event is written only once the caller has seen
			// this one: events cannot be buffered until the end.
			select {
			case got := <-seen:
				if got != i {
					return
				}
			case <-time.After(5 * time.Second):
				return
			}
		}
		w.Write([]byte("event: summary\ndata: {\"done\":true}\n\n"))
	})
	addr, _ := startWorker(t, mux)
	p := NewPool(PoolConfig{Addrs: []string{addr}})
	defer p.Close()

	var events []string
	body, err := p.Do(context.Background(), p.Nodes()[0], "POST /stream", []byte("{}"), func(ev []byte) {
		events = append(events, string(ev))
		if len(events) <= 3 {
			seen <- len(events) - 1
		}
	})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	want := []string{
		"event: scenario\ndata: {\"i\":0}",
		"event: scenario\ndata: {\"i\":1}",
		"event: scenario\ndata: {\"i\":2}",
		"event: summary\ndata: {\"done\":true}",
	}
	if strings.Join(events, "|") != strings.Join(want, "|") {
		t.Fatalf("events %q, want %q", events, want)
	}
	if string(body) != want[3] {
		t.Fatalf("final body %q, want the last event", body)
	}

	// A plain 404 to a call that asked for events is a StatusError with
	// the whole body; a malformed method never leaves the pool.
	_, err = p.Do(context.Background(), p.Nodes()[0], "POST /nope", nil, func([]byte) {})
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusNotFound || !strings.Contains(string(status.Body), "not found") {
		t.Fatalf("unknown route: %v", err)
	}
	if _, err := p.Do(context.Background(), p.Nodes()[0], "nope", nil, nil); err == nil {
		t.Fatal("malformed method accepted")
	}
	if n := p.Nodes()[0]; n.Errors.Load() != 0 {
		t.Fatalf("a refused call counted %d transport errors", n.Errors.Load())
	}
}

// TestDoCancelPropagates: canceling the caller's context cancels the
// handler's request context on the worker, without demoting the node;
// canceling Serve's context closes the connection and returns nil.
func TestDoCancelPropagates(t *testing.T) {
	started := make(chan struct{})
	stopped := make(chan struct{})
	mux := pingMux()
	mux.HandleFunc("POST /wait", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done()
		close(stopped)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(sctx, ln, mux) }()
	defer scancel()

	p := NewPool(PoolConfig{Addrs: []string{ln.Addr().String()}})
	defer p.Close()
	n := p.Nodes()[0]
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, n, "POST /wait", nil, nil)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error: %v", err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never reached the handler")
	}
	if n.Errors.Load() != 0 {
		t.Fatalf("caller cancellation counted as %d transport errors", n.Errors.Load())
	}

	// A request in flight when Serve's context ends has its connection
	// closed under it; Serve reports a clean shutdown.
	started = make(chan struct{})
	stopped = make(chan struct{})
	go func() {
		_, err := p.Do(context.Background(), n, "POST /wait", nil, nil)
		errc <- err
	}()
	<-started
	scancel()
	if err := <-errc; err == nil {
		t.Fatal("exchange survived the server shutting down")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after shutdown: %v", err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never canceled the in-flight handler")
	}
}

func TestPickSkipsUnhealthyDeterministically(t *testing.T) {
	p := NewPool(PoolConfig{Addrs: []string{"a:1", "b:1", "c:1"}})
	for _, n := range p.nodes {
		n.mu.Lock()
		n.healthy = true
		n.mu.Unlock()
	}
	key := []byte("session-key")
	first := p.Pick(key)
	if first == nil {
		t.Fatal("no pick with all healthy")
	}
	// Record where a spread of keys lands, then demote the first node.
	before := make(map[int]*Node)
	for i := 0; i < 64; i++ {
		before[i] = p.Pick([]byte{byte(i), 'k'})
	}
	first.mu.Lock()
	first.healthy = false
	first.mu.Unlock()

	second := p.Pick(key)
	if second == nil || second == first {
		t.Fatalf("pick after demotion: %v", second)
	}
	if p.Pick(key) != second {
		t.Fatal("fallback placement unstable")
	}
	// Consistent hashing: only keys that lived on the demoted node move.
	for i := 0; i < 64; i++ {
		after := p.Pick([]byte{byte(i), 'k'})
		if before[i] != first && after != before[i] {
			t.Fatalf("key %d moved from a healthy node", i)
		}
		if before[i] == first && after == first {
			t.Fatalf("key %d stayed on the demoted node", i)
		}
	}
}
