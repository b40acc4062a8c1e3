package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestExtractCacheHit(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	c := NewExtractCache()

	m1, err := c.Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("second extraction did not hit the cache")
	}
	// Delta 0 normalizes to DefaultDelta: same key.
	m3, err := c.Extract(g, Options{Delta: DefaultDelta})
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 {
		t.Fatal("Delta=0 and Delta=DefaultDelta should share a cache entry")
	}
	// Workers is schedule-only and must not split the key.
	m4, err := c.Extract(g, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m4 != m1 {
		t.Fatal("Workers changed the cache key")
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 3/1", hits, misses)
	}
	// Only the miss ran the pipeline, and its time is accounted.
	if n, took := c.Extractions(); n != 1 || took <= 0 {
		t.Fatalf("extractions = %d taking %v, want 1 taking > 0", n, took)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

func TestExtractCacheKeyedByOptions(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	c := NewExtractCache()
	loose, err := c.Extract(g, Options{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := c.Extract(g, Options{Delta: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if loose == tight {
		t.Fatal("different deltas share one cache entry")
	}
	if loose.Stats.EdgesModel <= tight.Stats.EdgesModel {
		t.Fatalf("delta 0.01 model (%d edges) not larger than delta 0.20 (%d)",
			loose.Stats.EdgesModel, tight.Stats.EdgesModel)
	}
	// Distinct graphs are distinct keys even with equal options.
	g2 := buildGraph(t, "c432", 2)
	other, err := c.Extract(g2, Options{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if other == loose {
		t.Fatal("different graphs share one cache entry")
	}
}

// TestExtractCacheConcurrent hammers one key from many goroutines: all
// callers must observe the same model and the pipeline must run once.
// Run with -race.
func TestExtractCacheConcurrent(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	c := NewExtractCache()
	const goroutines = 16
	models := make([]*Model, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			models[k], errs[k] = c.Extract(g, Options{})
		}(k)
	}
	wg.Wait()
	for k := 0; k < goroutines; k++ {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if models[k] != models[0] {
			t.Fatalf("goroutine %d got a different model", k)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 {
		t.Fatalf("extraction ran %d times, want 1 (hits %d)", misses, hits)
	}
}

func TestExtractCacheMatchesDirect(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	direct, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewExtractCache().Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.EdgesModel != direct.Stats.EdgesModel ||
		cached.Stats.VertsModel != direct.Stats.VertsModel {
		t.Fatalf("cached model shape %d/%d differs from direct %d/%d",
			cached.Stats.EdgesModel, cached.Stats.VertsModel,
			direct.Stats.EdgesModel, direct.Stats.VertsModel)
	}
}

func TestExtractCacheNilReceiver(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	var c *ExtractCache
	if _, err := c.Extract(g, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractCacheErrorNotPinned(t *testing.T) {
	c := NewExtractCache()
	if _, err := c.Extract(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if c.Len() != 0 {
		t.Fatal("failed extraction left a cache entry")
	}
}

// TestExtractCacheEviction is the regression test for the unbounded-growth
// leak: under a cap of N the cache holds at most N entries after 2N
// distinct extractions, and the overflow shows up as evictions.
func TestExtractCacheEviction(t *testing.T) {
	const cap = 4
	c := NewExtractCacheSized(cap, 0)
	for i := 0; i < 2*cap; i++ {
		// Each call builds a fresh graph: distinct pointer, distinct key.
		if _, err := c.Extract(buildGraph(t, "c17", 1), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > cap {
		t.Fatalf("cache holds %d entries after %d distinct extractions, cap %d", got, 2*cap, cap)
	}
	m := c.Metrics()
	if m.Evictions != cap {
		t.Fatalf("evictions = %d, want %d", m.Evictions, cap)
	}
	if m.Misses != 2*cap || m.Hits != 0 {
		t.Fatalf("stats = %d hits / %d misses, want 0/%d", m.Hits, m.Misses, 2*cap)
	}
	if m.MaxEntries != cap {
		t.Fatalf("MaxEntries = %d, want %d", m.MaxEntries, cap)
	}
}

// TestExtractCacheLRUOrder: a hit refreshes recency, so the least recently
// *used* entry is the one evicted.
func TestExtractCacheLRUOrder(t *testing.T) {
	c := NewExtractCacheSized(2, 0)
	g1 := buildGraph(t, "c17", 1)
	g2 := buildGraph(t, "c17", 1)
	m1, err := c.Extract(g1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extract(g2, Options{}); err != nil {
		t.Fatal(err)
	}
	// Touch g1 so g2 becomes least recently used, then overflow the cap.
	if m, err := c.Extract(g1, Options{}); err != nil || m != m1 {
		t.Fatalf("g1 hit: model %p want %p (err %v)", m, m1, err)
	}
	if _, err := c.Extract(buildGraph(t, "c17", 1), Options{}); err != nil {
		t.Fatal(err)
	}
	if m, err := c.Extract(g1, Options{}); err != nil || m != m1 {
		t.Fatalf("recently used g1 was evicted (model %p want %p, err %v)", m, m1, err)
	}
	before := c.Metrics().Misses
	if _, err := c.Extract(g2, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := c.Metrics().Misses; after != before+1 {
		t.Fatal("least recently used g2 survived the eviction")
	}
}

// TestExtractCacheCostBound: a byte budget evicts down to the most recent
// entry instead of thrashing to zero.
func TestExtractCacheCostBound(t *testing.T) {
	c := NewExtractCacheSized(0, 1) // every real model exceeds one byte
	g1 := buildGraph(t, "c17", 1)
	g2 := buildGraph(t, "c17", 1)
	if _, err := c.Extract(g1, Options{}); err != nil {
		t.Fatal(err)
	}
	m2, err := c.Extract(g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("cost bound kept %d entries, want 1", got)
	}
	if m, err := c.Extract(g2, Options{}); err != nil || m != m2 {
		t.Fatal("most recent entry was not the retained one")
	}
	if m := c.Metrics(); m.Cost <= 0 || m.Evictions != 1 {
		t.Fatalf("metrics after cost eviction: %+v", m)
	}
}

// TestExtractCacheCtxCancelled: a cancelled caller neither computes nor
// leaves residue in the cache.
func TestExtractCacheCtxCancelled(t *testing.T) {
	c := NewExtractCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExtractCtx(ctx, buildGraph(t, "c17", 1), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatal("cancelled extraction left a cache entry")
	}
}
