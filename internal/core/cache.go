package core

import (
	"container/list"
	"context"
	"runtime"
	"sync"

	"repro/internal/timing"
)

// extractKey identifies one extraction: the module timing graph (by
// identity — graphs are immutable once built) plus the options that change
// the result. Workers is deliberately excluded: it affects only the
// schedule, never the extracted model.
type extractKey struct {
	graph    *timing.Graph
	delta    float64
	noGuard  bool
	maxIters int
}

func newExtractKey(g *timing.Graph, opt Options) extractKey {
	delta := opt.Delta
	if delta == 0 {
		delta = DefaultDelta
	}
	return extractKey{graph: g, delta: delta, noGuard: opt.DisablePathProtection, maxIters: opt.MaxMergeIters}
}

// extractEntry is a singleflight slot: the first caller computes, everyone
// else blocks on done and reads the shared result. Completed entries are
// additionally linked into the cache's LRU list; in-flight entries are not
// (and therefore can never be evicted mid-computation).
type extractEntry struct {
	key   extractKey
	done  chan struct{}
	model *Model
	err   error
	cost  int64
	elem  *list.Element // nil while the extraction is in flight
}

// DefaultCacheEntries is the entry cap installed by NewExtractCache. A
// long-running process analyzing an open-ended stream of distinct graphs
// must not pin every one of them forever; callers that genuinely want an
// unbounded cache can ask for one via NewExtractCacheSized(0, 0).
const DefaultCacheEntries = 256

// ExtractCache memoizes timing-model extraction so each distinct module is
// extracted at most once per option set, no matter how many instances,
// corners or concurrent analyses reference it. It is safe for concurrent
// use; duplicate concurrent requests for the same key are coalesced into a
// single extraction (singleflight).
//
// The cache is size-bounded: completed entries live on an LRU list with a
// configurable entry cap and an optional cost budget (an estimate of the
// retained model bytes), and least-recently-used entries are evicted once
// either bound is exceeded. Eviction only drops the cache's references —
// models already handed out stay valid, and a re-request re-extracts.
type ExtractCache struct {
	mu      sync.Mutex
	entries map[extractKey]*extractEntry
	lru     list.List // completed entries; front = most recently used

	maxEntries int   // <= 0: unbounded
	maxCost    int64 // <= 0: unbounded
	cost       int64 // summed cost of completed entries

	// filling counts detached fill goroutines. Bounding it keeps the
	// cancellable-wait design from becoming an amplification vector: a
	// stream of distinct-key requests with short deadlines may abandon at
	// most maxFill background extractions; beyond that, misses compute
	// inline on the caller (bounded by the caller's own concurrency).
	filling int
	maxFill int

	hits      int64
	misses    int64
	evictions int64
}

// NewExtractCache returns a cache bounded at DefaultCacheEntries entries
// with no cost budget.
func NewExtractCache() *ExtractCache {
	return NewExtractCacheSized(DefaultCacheEntries, 0)
}

// NewExtractCacheSized returns a cache holding at most maxEntries completed
// models whose summed cost estimate stays within maxCost bytes. A zero or
// negative value disables the respective bound; the most recent entry is
// always retained, so a single model larger than maxCost does not thrash.
func NewExtractCacheSized(maxEntries int, maxCost int64) *ExtractCache {
	return &ExtractCache{
		entries:    make(map[extractKey]*extractEntry),
		maxEntries: maxEntries,
		maxCost:    maxCost,
		maxFill:    runtime.GOMAXPROCS(0),
	}
}

// modelCost estimates the resident size of a cached model in bytes: the
// dominant term is one canonical form per edge (nominal + rand + global and
// local sensitivity vectors), plus per-vertex adjacency overhead.
func modelCost(m *Model) int64 {
	if m == nil || m.Graph == nil {
		return 1
	}
	g := m.Graph
	stride := int64(g.Space.Globals+g.Space.Components+2) * 8
	return int64(len(g.Edges))*stride + int64(g.NumVerts)*16
}

// Extract returns the memoized model for (g, opt), running the extraction
// pipeline on a miss. The returned *Model is shared between callers and
// must be treated as immutable.
func (c *ExtractCache) Extract(g *timing.Graph, opt Options) (*Model, error) {
	return c.ExtractCtx(context.Background(), g, opt)
}

// ExtractCtx is Extract with cancellable waiting: every caller — including
// the one that triggered the computation — stops waiting once its ctx
// fires. The extraction itself always runs to completion on a detached
// goroutine: it is shared, singleflight-bounded work whose result warms
// the cache for the waiters and requests that follow, so a cancelled
// initiator must neither block on it nor abort it.
func (c *ExtractCache) ExtractCtx(ctx context.Context, g *timing.Graph, opt Options) (*Model, error) {
	if c == nil {
		return ExtractCtx(ctx, g, opt)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := newExtractKey(g, opt)
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
	} else {
		e = &extractEntry{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.misses++
		detach := c.filling < c.maxFill
		if detach {
			c.filling++
		}
		c.mu.Unlock()
		fill := func() {
			e.model, e.err = Extract(g, opt)
			c.mu.Lock()
			if detach {
				c.filling--
			}
			if c.entries[key] == e {
				if e.err != nil {
					// Do not pin failures: a later retry may succeed (e.g.
					// transient resource exhaustion) and a stale error must
					// not poison the cache.
					delete(c.entries, key)
				} else {
					e.cost = modelCost(e.model)
					e.elem = c.lru.PushFront(e)
					c.cost += e.cost
					c.evictLocked()
				}
			}
			c.mu.Unlock()
			close(e.done)
		}
		if !detach {
			// Fill capacity saturated: compute inline. The wait below
			// resolves immediately; the deadline is honored again once the
			// background fills drain.
			fill()
			return e.model, e.err
		}
		go fill()
	}
	select {
	case <-e.done:
		return e.model, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// evictLocked drops least-recently-used completed entries until both bounds
// hold again, always retaining at least the freshest completed entry.
// In-flight entries are not on the list and are never touched.
func (c *ExtractCache) evictLocked() {
	for c.lru.Len() > 1 &&
		((c.maxEntries > 0 && c.lru.Len() > c.maxEntries) ||
			(c.maxCost > 0 && c.cost > c.maxCost)) {
		back := c.lru.Back()
		e := back.Value.(*extractEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.cost -= e.cost
		c.evictions++
	}
}

// Stats reports cache hits and misses so far.
func (c *ExtractCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheMetrics is a point-in-time snapshot of the cache counters, exposed
// by the serving layer's /metrics endpoint.
type CacheMetrics struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Entries    int   // completed + in-flight
	Cost       int64 // summed cost estimate of completed entries (bytes)
	MaxEntries int   // 0: unbounded
	MaxCost    int64 // 0: unbounded
}

// Metrics snapshots the cache counters.
func (c *ExtractCache) Metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := CacheMetrics{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Cost: c.cost,
		MaxCost: c.maxCost,
	}
	if c.maxEntries > 0 {
		m.MaxEntries = c.maxEntries
	}
	return m
}

// Len returns the number of cached models (including in-flight ones).
func (c *ExtractCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup peeks for a completed model under (g, opt) without blocking and
// without triggering an extraction. In-flight entries report a miss: the
// caller that wants to wait should use ExtractCtx. A hit counts toward
// the cache's hit statistics; a miss is not counted here because the
// caller typically follows up with ExtractCtx, which does the counting.
// A coordinator uses it to find the models its prep extracted, to push
// them to its workers.
func (c *ExtractCache) Lookup(g *timing.Graph, opt Options) (*Model, bool) {
	if c == nil {
		return nil, false
	}
	key := newExtractKey(g, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil || e.err != nil {
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e.model, true
}

// Seed installs an already extracted model under (g, opt) without running
// the pipeline — the warm-start path: a restored snapshot re-enters the
// cache so the first post-restart request hits instead of re-extracting.
// An existing entry (completed or in flight) wins and Seed reports false;
// the model must be treated as immutable from here on.
func (c *ExtractCache) Seed(g *timing.Graph, opt Options, m *Model) bool {
	if c == nil || m == nil {
		return false
	}
	key := newExtractKey(g, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &extractEntry{key: key, done: make(chan struct{}), model: m, cost: modelCost(m)}
	close(e.done)
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.cost += e.cost
	c.evictLocked()
	return true
}
