package cluster

import (
	"context"
	"net"
	"sync"
	"time"
)

// Deterministic transport fault injection, mirroring the store.Fault
// wrapper pattern: wrap the pool's DialFunc, count Write calls per
// connection, and fail on a schedule. The HTTP transport buffers each
// request and flushes it with one Write when headers and body fit its
// 4 KiB write buffer, so on small requests counting writes counts
// requests; a larger body takes one Write per buffer flush.

// FaultConfig schedules transport faults. Zero value injects nothing.
type FaultConfig struct {
	// DropAfterWrites drops the connection after the Nth write (1-based),
	// as if the peer died holding the request: whatever arrives next is
	// discarded and the connection closes. The close waits for that
	// read so the write is fully accounted first; closing inside the write
	// would let an HTTP transport take the request for unsent and quietly
	// replay it. Zero disables.
	DropAfterWrites int
	// TearAtWrite truncates the Nth write halfway and then closes the
	// connection, leaving a torn request at the peer. Zero disables.
	TearAtWrite int
	// WriteLatency delays every write.
	WriteLatency time.Duration
	// FailDials makes subsequent dials fail outright.
	FailDials bool
}

// FaultDialer wraps dial so every connection it opens injects the
// faults described by cfg. Counters are per-connection and the config
// can be swapped between dials; reads of cfg are synchronized.
type FaultDialer struct {
	inner DialFunc

	mu     sync.Mutex
	cfg    FaultConfig
	dials  int
	writes int // total writes across connections, for assertions
}

// NewFaultDialer wraps inner with fault injection.
func NewFaultDialer(inner DialFunc, cfg FaultConfig) *FaultDialer {
	return &FaultDialer{inner: inner, cfg: cfg}
}

// SetConfig swaps the fault schedule for connections dialed from now on.
func (f *FaultDialer) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	f.mu.Unlock()
}

// Counters reports total dials and writes through this dialer.
func (f *FaultDialer) Counters() (dials, writes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials, f.writes
}

// Dial is the DialFunc to hand the pool.
func (f *FaultDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	f.mu.Lock()
	cfg := f.cfg
	f.dials++
	f.mu.Unlock()
	if cfg.FailDials {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: context.DeadlineExceeded}
	}
	nc, err := f.inner(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: nc, dialer: f, cfg: cfg}, nil
}

// faultConn injects the scheduled faults on one connection.
type faultConn struct {
	net.Conn
	dialer *FaultDialer
	cfg    FaultConfig

	mu      sync.Mutex
	writes  int
	dropped bool
}

func (c *faultConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	dropped := c.dropped
	c.mu.Unlock()
	if dropped {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.cfg.WriteLatency > 0 {
		time.Sleep(c.cfg.WriteLatency)
	}
	c.mu.Lock()
	c.writes++
	w := c.writes
	// Marked before the write goes out, so even an instant answer to it is
	// discarded.
	if c.cfg.DropAfterWrites > 0 && w >= c.cfg.DropAfterWrites {
		c.dropped = true
	}
	c.mu.Unlock()
	c.dialer.mu.Lock()
	c.dialer.writes++
	c.dialer.mu.Unlock()

	if c.cfg.TearAtWrite > 0 && w == c.cfg.TearAtWrite {
		half := len(b) / 2
		n, _ := c.Conn.Write(b[:half])
		c.Conn.Close()
		return n, net.ErrClosed
	}
	return c.Conn.Write(b)
}
