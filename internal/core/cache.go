package core

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/memo"
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
// models already handed out stay valid, and a re-request re-extracts. The
// fill policy is internal/memo's.
type ExtractCache struct {
	models *memo.Cache[extractKey, *Model]

	// Cold extractions the cache ran (its misses, counted as they finish)
	// and their summed wall-clock time.
	runs     atomic.Int64
	runNanos atomic.Int64
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
	return &ExtractCache{models: memo.New[extractKey](maxEntries, maxCost, modelCost)}
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
// fires, also while a miss waits for a free fill slot. A started
// extraction always runs to completion on a detached goroutine: it is
// shared, singleflight-bounded work whose result warms the cache for the
// waiters and requests that follow.
func (c *ExtractCache) ExtractCtx(ctx context.Context, g *timing.Graph, opt Options) (*Model, error) {
	if c == nil {
		return ExtractCtx(ctx, g, opt)
	}
	return c.models.Get(ctx, newExtractKey(g, opt), func() (*Model, error) {
		start := time.Now()
		m, err := Extract(g, opt)
		c.runNanos.Add(int64(time.Since(start)))
		c.runs.Add(1)
		return m, err
	})
}

// Extractions reports the cold extractions the cache has run to completion
// and the wall-clock time they took in total: what its misses cost.
func (c *ExtractCache) Extractions() (n int64, total time.Duration) {
	return c.runs.Load(), time.Duration(c.runNanos.Load())
}

// Stats reports cache hits and misses so far.
func (c *ExtractCache) Stats() (hits, misses int64) {
	st := c.models.Stats()
	return st.Hits, st.Misses
}

// CacheMetrics is a point-in-time snapshot of the cache counters, exposed
// by the serving layer's /metrics endpoint. Misses counts extractions
// started; Cost is in estimated bytes.
type CacheMetrics = memo.Stats

// Metrics snapshots the cache counters.
func (c *ExtractCache) Metrics() CacheMetrics { return c.models.Stats() }

// Len returns the number of cached models (including in-flight ones).
func (c *ExtractCache) Len() int { return c.models.Len() }

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
	return c.models.Peek(newExtractKey(g, opt))
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
	return c.models.Seed(newExtractKey(g, opt), m)
}
