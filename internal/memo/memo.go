// Package memo is the memoizing cache behind every reusable artifact of
// the serving stack: built timing graphs, extracted timing models and
// hierarchical quad designs. Each is built once per key and shared by
// every caller, which is the paper's premise — a module is characterized
// once and reused by all its instances.
//
// One policy covers all of them:
//
//   - one fill per key: concurrent callers of a missing key wait for the
//     single fill in flight (singleflight);
//   - completed entries live on an LRU list bounded by an entry cap and an
//     optional cost budget, and the freshest entry is always kept;
//   - a failed fill is not cached, so a later call retries;
//   - every wait honors the caller's ctx;
//   - at most GOMAXPROCS fills run at once, each on a detached goroutine
//     that completes and warms the cache even after its initiator gave up.
//     A miss with every fill slot busy waits for one under its own ctx; if
//     it gives up first it leaves no entry, and callers that joined its key
//     retry under their own deadlines rather than inherit its error.
package memo

import (
	"container/list"
	"context"
	"runtime"
	"sync"
)

// Cache memoizes values of type V by comparable key K. It is safe for
// concurrent use; values are shared between callers and must be treated as
// immutable.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     list.List // completed entries; front = most recently used

	maxEntries int
	maxCost    int64
	costOf     func(V) int64
	cost       int64 // summed cost of completed entries

	// fills is the fill-slot semaphore. Bounding detached fills keeps
	// cancellable waits from becoming an amplification vector: a stream of
	// distinct-key requests with short deadlines can abandon at most
	// cap(fills) fills.
	fills chan struct{}

	hits, misses, evictions int64
}

// entry is one key's slot. done closes once val and err are final; an
// entry is on the LRU list (elem != nil) only once its fill succeeded, so
// an in-flight entry is never evicted and is removed only by its own
// initiator.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
	// abandoned marks an entry whose initiator gave up before its fill
	// started: joined callers retry instead of reading err.
	abandoned bool
	cost      int64
	elem      *list.Element
}

// New returns a cache holding at most maxEntries completed values whose
// summed cost stays within maxCost. A value <= 0 disables that bound; cost
// may be nil when maxCost is unused (every value then costs 0).
func New[K comparable, V any](maxEntries int, maxCost int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		entries:    make(map[K]*entry[K, V]),
		maxEntries: max(maxEntries, 0),
		maxCost:    max(maxCost, 0),
		costOf:     cost,
		fills:      make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// Get returns the value for key, running fill on a miss. Every caller,
// the one that started the fill included, stops waiting once its ctx is
// done; a started fill runs to completion regardless.
func (c *Cache[K, V]) Get(ctx context.Context, key K, fill func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok {
			c.hits++
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.mu.Unlock()
		} else {
			e = &entry[K, V]{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			if !c.start(ctx, e, fill) {
				return zero, ctx.Err()
			}
		}
		select {
		case <-e.done:
			if !e.abandoned {
				return e.val, e.err
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// start waits for a fill slot under ctx and runs fill for e on a detached
// goroutine. If ctx ends first it removes e, releases its joined callers
// to retry, and reports false.
func (c *Cache[K, V]) start(ctx context.Context, e *entry[K, V], fill func() (V, error)) bool {
	select {
	case c.fills <- struct{}{}:
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.entries, e.key)
		c.mu.Unlock()
		e.abandoned = true
		close(e.done)
		return false
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	go func() {
		val, err := fill()
		<-c.fills
		c.mu.Lock()
		e.val, e.err = val, err
		if err != nil {
			delete(c.entries, e.key)
		} else {
			c.pushLocked(e)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	return true
}

// pushLocked links a completed entry into the LRU list and evicts down to
// the bounds, always keeping the freshest entry.
func (c *Cache[K, V]) pushLocked(e *entry[K, V]) {
	if c.costOf != nil {
		e.cost = c.costOf(e.val)
	}
	e.elem = c.lru.PushFront(e)
	c.cost += e.cost
	for c.lru.Len() > 1 &&
		((c.maxEntries > 0 && c.lru.Len() > c.maxEntries) ||
			(c.maxCost > 0 && c.cost > c.maxCost)) {
		old := c.lru.Remove(c.lru.Back()).(*entry[K, V])
		delete(c.entries, old.key)
		c.cost -= old.cost
		c.evictions++
	}
}

// Peek returns the completed value for key without filling or waiting; an
// in-flight key reports false. A found value counts as a hit and refreshes
// its recency.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		var zero V
		return zero, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e.val, true
}

// Seed installs an already computed value under key without a fill — the
// warm-start path. An existing entry, completed or in flight, wins and
// Seed reports false.
func (c *Cache[K, V]) Seed(key K, val V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &entry[K, V]{key: key, done: make(chan struct{}), val: val}
	close(e.done)
	c.entries[key] = e
	c.pushLocked(e)
	return true
}

// Len returns the number of entries, in-flight fills included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats is a point-in-time snapshot of a cache's counters and bounds.
type Stats struct {
	Hits       int64
	Misses     int64 // fills started
	Evictions  int64
	Entries    int   // completed + in-flight
	Cost       int64 // summed cost of completed entries
	MaxEntries int   // 0: unbounded
	MaxCost    int64 // 0: unbounded
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Cost: c.cost,
		MaxEntries: c.maxEntries, MaxCost: c.maxCost,
	}
}
