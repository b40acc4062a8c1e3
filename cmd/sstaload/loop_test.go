package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls every request for 200 ms once must show up in all
// the requests that fell due during the stall, each timed from its due
// time — not only in the one or two requests that were on the wire, as a
// closed-loop client would report it.
func TestOpenLoopRecordsStallFromDueTimes(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	var stalling atomic.Bool
	gate := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := served.Add(1); {
		case n == 40:
			stalling.Store(true)
			time.Sleep(stall)
			close(gate)
		case stalling.Load():
			<-gate
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	// 200 requests evenly due over one second: 5 ms apart.
	reqs := make([]Request, 200)
	for i := range reqs {
		reqs[i] = Request{Due: time.Duration(i) * 5 * time.Millisecond, Method: http.MethodGet, Path: "/", Session: -1, Class: "get"}
	}
	c := &loadClient{hc: newHTTPClient(2), base: ts.URL, check: func(*Request, []byte) error { return nil }}
	outs := c.openLoop(context.Background(), reqs, 2, func(*Request) bool { return false })

	slow := 0
	for i := range outs {
		if !outs[i].ok {
			t.Fatalf("request %d failed: %+v", i, outs[i].fail)
		}
		if outs[i].lat > 100 {
			slow++
		}
	}
	// The stall starts with request 40 (due at 195 ms after the first); the
	// ~20 requests due in its first 100 ms each wait more than 100 ms.
	if slow < 15 {
		t.Errorf("only %d requests recorded more than 100 ms behind a %v stall", slow, stall)
	}
	if lat := outs[41].lat; lat < 150 {
		t.Errorf("request due right after the stall began recorded %.1f ms, want >= 150", lat)
	}
	if q := outs[60].queue; q < 50 {
		t.Errorf("request queued behind the stall waited %.1f ms for a connection", q)
	}
}
