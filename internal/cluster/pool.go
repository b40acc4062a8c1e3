package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PingMethod is the health check the pool sends every worker on each
// interval tick; any 2xx answer counts as healthy.
const PingMethod = "GET /healthz"

// BootIDHeader carries a worker process's boot id on its health answer. A
// changed id means the worker restarted and lost its in-memory state.
const BootIDHeader = "X-Sstad-Boot-Id"

// DialFunc opens a transport connection to a worker address. Tests and
// fault injection substitute their own.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// ringVnodes is how many virtual nodes each worker contributes to the
// placement ring. More vnodes smooth the key distribution.
const ringVnodes = 64

// PoolConfig configures a worker pool.
type PoolConfig struct {
	// Addrs are the worker addresses (host:port) of their -rpc-listen
	// listeners.
	Addrs []string
	// Dial opens connections; nil uses a net.Dialer with PingTimeout.
	Dial DialFunc
	// PingInterval is the health-check cadence. Default 500ms.
	PingInterval time.Duration
	// PingTimeout bounds one ping round trip (and the default dial).
	// Default 2s.
	PingTimeout time.Duration
	// FailThreshold is how many consecutive ping failures mark a node
	// unhealthy. Default 1: a dispatch failure or missed ping demotes
	// immediately; the next successful ping promotes back.
	FailThreshold int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.PingInterval <= 0 {
		c.PingInterval = 500 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = 2 * time.Second
	}
	if c.Dial == nil {
		d := net.Dialer{Timeout: c.PingTimeout}
		c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 1
	}
	return c
}

// Node is one worker in the pool. Counters are exposed for metrics.
type Node struct {
	addr string

	mu         sync.Mutex
	healthy    bool
	lastErr    error
	lastSeen   time.Time
	bootID     string
	consecFail int

	// InFlight is the number of dispatches currently on this node.
	InFlight atomic.Int64
	// Dispatches counts exchanges issued to this node, health pings
	// excluded.
	Dispatches atomic.Int64
	// Errors counts exchanges, health pings included, that failed in
	// transport.
	Errors atomic.Int64
	// Sessions counts stateful sessions currently routed to this node.
	Sessions atomic.Int64
}

// Addr reports the node's worker address.
func (n *Node) Addr() string { return n.addr }

// Healthy reports whether the last health check succeeded.
func (n *Node) Healthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}

// LastErr reports the most recent transport failure, if any.
func (n *Node) LastErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastErr
}

// LastSeen reports when the node last answered.
func (n *Node) LastSeen() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastSeen
}

// BootID reports the boot id of the worker process that answered the last
// successful health check ("" before the first).
func (n *Node) BootID() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bootID
}

// StatusError is a worker's non-2xx answer: the exchange worked, the
// request did not. It never demotes the node.
type StatusError struct {
	Code int
	Body []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: worker answered %d: %s", e.Code, bytes.TrimSpace(e.Body))
}

// Pool is a fixed-membership worker pool: one keep-alive HTTP transport
// for every node, a health check per node, and a consistent-hash ring
// for placement.
type Pool struct {
	cfg       PoolConfig
	nodes     []*Node
	ring      []ringEntry
	transport *http.Transport

	stop context.CancelFunc
	wg   sync.WaitGroup
}

type ringEntry struct {
	hash uint64
	node *Node
}

// NewPool builds a pool over the given worker addresses. Call Start to
// begin health checking; Do works before that.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg: cfg,
		transport: &http.Transport{
			DialContext: func(ctx context.Context, _, addr string) (net.Conn, error) {
				return cfg.Dial(ctx, addr)
			},
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	for _, addr := range cfg.Addrs {
		n := &Node{addr: addr}
		p.nodes = append(p.nodes, n)
		for v := 0; v < ringVnodes; v++ {
			p.ring = append(p.ring, ringEntry{hash: ringHash(addr + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
	return p
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Start launches the health-check loops. ctx bounds the pool's
// lifetime.
func (p *Pool) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	p.stop = cancel
	for _, n := range p.nodes {
		n := n
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.healthLoop(ctx, n)
		}()
	}
}

// Close stops health checking and closes idle connections.
func (p *Pool) Close() {
	if p.stop != nil {
		p.stop()
	}
	p.wg.Wait()
	p.transport.CloseIdleConnections()
}

// healthLoop pings one node forever.
func (p *Pool) healthLoop(ctx context.Context, n *Node) {
	t := time.NewTicker(p.cfg.PingInterval)
	defer t.Stop()
	for {
		p.ping(ctx, n)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// ping performs one health check round trip. A ping that times out
// fails like any other: a hung worker is demoted too.
func (p *Pool) ping(ctx context.Context, n *Node) {
	cctx, cancel := context.WithTimeout(ctx, p.cfg.PingTimeout)
	defer cancel()
	req, err := newRequest(cctx, n, PingMethod, nil, false)
	var h http.Header
	if err == nil {
		_, h, err = p.exchange(req, nil)
	}
	if err != nil {
		if ctx.Err() == nil {
			p.noteFailure(n, err)
		}
		return
	}
	n.mu.Lock()
	n.bootID = h.Get(BootIDHeader)
	n.healthy = true
	n.consecFail = 0
	n.lastErr = nil
	n.lastSeen = time.Now()
	n.mu.Unlock()
}

// noteFailure records a failed exchange and demotes the node once the
// consecutive-failure threshold is crossed. Failures other than a
// worker's non-2xx answer also count in Errors.
func (p *Pool) noteFailure(n *Node, err error) {
	var status *StatusError
	if !errors.As(err, &status) {
		n.Errors.Add(1)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lastErr = err
	n.consecFail++
	if n.consecFail >= p.cfg.FailThreshold {
		n.healthy = false
	}
}

// transportFailed reports whether err is a transport failure that is the
// node's fault: not a worker's answer, and not a caller giving up.
func transportFailed(ctx context.Context, err error) bool {
	var status *StatusError
	return err != nil && ctx.Err() == nil && !errors.As(err, &status)
}

// Do performs one HTTP exchange with a node. method is a "METHOD /path"
// pattern such as "POST /v1/sweep"; a non-nil body is sent as JSON. When
// onEvent is non-nil the request asks for an event stream, and a
// text/event-stream answer is handed to onEvent one event at a time as it
// arrives (the event's lines, without the blank line that ends it); the
// returned body is then the stream's last event. Any other answer returns
// its whole body. A transport failure demotes the node so dispatches skip
// it until the next successful ping; a non-2xx answer returns a
// *StatusError and leaves the node alone.
func (p *Pool) Do(ctx context.Context, n *Node, method string, body []byte, onEvent func([]byte)) ([]byte, error) {
	req, err := newRequest(ctx, n, method, body, onEvent != nil)
	if err != nil {
		return nil, err
	}
	n.Dispatches.Add(1)
	n.InFlight.Add(1)
	defer n.InFlight.Add(-1)
	out, _, err := p.exchange(req, onEvent)
	if transportFailed(ctx, err) {
		p.noteFailure(n, err)
	}
	return out, err
}

// newRequest builds the request for a "METHOD /path" call to n.
func newRequest(ctx context.Context, n *Node, method string, body []byte, events bool) (*http.Request, error) {
	verb, path, ok := strings.Cut(method, " ")
	if !ok || !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("cluster: method %q is not \"METHOD /path\"", method)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, verb, "http://"+n.addr+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if events {
		req.Header.Set("Accept", "text/event-stream")
	}
	return req, nil
}

// exchange sends req and returns its answer (see Do) and the answer's header.
func (p *Pool) exchange(req *http.Request, onEvent func([]byte)) ([]byte, http.Header, error) {
	resp, err := p.transport.RoundTrip(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var out []byte
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		out, err = readEvents(resp.Body, onEvent)
	} else {
		out, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, resp.Header, &StatusError{Code: resp.StatusCode, Body: out}
	}
	return out, resp.Header, nil
}

// readEvents splits an event stream at its blank lines, hands each event
// to onEvent (if set) and returns the last one.
func readEvents(r io.Reader, onEvent func([]byte)) ([]byte, error) {
	br := bufio.NewReader(r)
	var ev, last []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimRight(line, "\r\n")) > 0 {
			ev = append(ev, line...)
		} else if len(ev) > 0 {
			last = bytes.TrimRight(ev, "\r\n")
			if onEvent != nil {
				onEvent(last)
			}
			ev = nil
		}
		if err == io.EOF {
			if len(ev) > 0 {
				return nil, io.ErrUnexpectedEOF // stream cut mid-event
			}
			return last, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// RoundTrip sends a request addressed to a pool member (its URL host is
// the node's address) over the pool's transport, with Do's accounting:
// the exchange counts as a dispatch while its response headers are
// pending, and a transport failure demotes the node. Reverse proxies to
// workers run on it.
func (p *Pool) RoundTrip(req *http.Request) (*http.Response, error) {
	n := p.NodeByAddr(req.URL.Host)
	if n == nil {
		return nil, fmt.Errorf("cluster: %s is not a pool member", req.URL.Host)
	}
	n.Dispatches.Add(1)
	n.InFlight.Add(1)
	defer n.InFlight.Add(-1)
	resp, err := p.transport.RoundTrip(req)
	if transportFailed(req.Context(), err) {
		p.noteFailure(n, err)
	}
	return resp, err
}

// Nodes returns all pool members in configuration order.
func (p *Pool) Nodes() []*Node { return p.nodes }

// Healthy returns the currently healthy members in configuration order.
func (p *Pool) Healthy() []*Node {
	var out []*Node
	for _, n := range p.nodes {
		if n.Healthy() {
			out = append(out, n)
		}
	}
	return out
}

// Pick places a key on the ring and returns the first healthy node at
// or after its position, or nil when the pool has no healthy node.
// Placement is stable: a key moves only when its node changes health.
func (p *Pool) Pick(key []byte) *Node {
	if len(p.ring) == 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write(key)
	target := h.Sum64()
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= target })
	for off := 0; off < len(p.ring); off++ {
		e := p.ring[(i+off)%len(p.ring)]
		if e.node.Healthy() {
			return e.node
		}
	}
	return nil
}

// NodeByAddr returns the member with the given address, or nil.
func (p *Pool) NodeByAddr(addr string) *Node {
	for _, n := range p.nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}
