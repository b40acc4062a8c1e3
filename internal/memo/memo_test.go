package memo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a fill that yields v and counts its calls.
func value(v int, calls *atomic.Int64) func() (int, error) {
	return func() (int, error) {
		calls.Add(1)
		return v, nil
	}
}

// until spins until cond holds; every caller waits on a condition the
// cache reaches on its own.
func until(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

func (c *Cache[K, V]) has(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// TestSingleFill: concurrent callers of one key share one fill, joined
// while it is in flight. Run with -race.
func TestSingleFill(t *testing.T) {
	c := New[string, int](0, 0, nil)
	gate := make(chan struct{})
	var calls atomic.Int64
	fill := func() (int, error) {
		calls.Add(1)
		<-gate
		return 42, nil
	}
	const callers = 16
	var wg sync.WaitGroup
	got := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.Get(context.Background(), "k", fill)
		}(i)
	}
	until(func() bool { st := c.Stats(); return st.Hits+st.Misses == callers })
	close(gate)
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != 42 {
			t.Fatalf("caller %d: %d, %v", i, got[i], errs[i])
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 entry", st, callers-1)
	}
}

// TestLRUOrder: a hit refreshes recency, so the least recently used entry
// is the one evicted at the entry cap.
func TestLRUOrder(t *testing.T) {
	c := New[string, int](2, 0, nil)
	ctx := context.Background()
	var calls atomic.Int64
	for _, k := range []string{"a", "b", "a", "c"} {
		if _, err := c.Get(ctx, k, value(1, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("least recently used b survived")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 || st.MaxEntries != 2 {
		t.Fatalf("stats %+v, want 1 eviction, 2 entries, cap 2", st)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d fills, want 3", n)
	}
}

// TestCostBound: the cost budget evicts down to the freshest entry, which
// stays even when it alone exceeds the budget.
func TestCostBound(t *testing.T) {
	c := New[string, int](0, 10, func(v int) int64 { return int64(v) })
	ctx := context.Background()
	var calls atomic.Int64
	for _, k := range []string{"a", "b"} {
		if _, err := c.Get(ctx, k, value(6, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Cost != 6 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 1 entry of cost 6 after 1 eviction", st)
	}
	if _, err := c.Get(ctx, "big", value(50, &calls)); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Peek("big"); !ok || v != 50 {
		t.Fatal("an over-budget freshest entry was not kept")
	}
	if st := c.Stats(); st.Entries != 1 || st.Cost != 50 {
		t.Fatalf("stats %+v, want only the over-budget entry", st)
	}
}

// TestErrorNotCached: a failed fill leaves no entry, and the next call
// fills again.
func TestErrorNotCached(t *testing.T) {
	c := New[string, int](0, 0, nil)
	boom := errors.New("boom")
	if _, err := c.Get(context.Background(), "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed fill left an entry")
	}
	var calls atomic.Int64
	if v, err := c.Get(context.Background(), "k", value(7, &calls)); err != nil || v != 7 || calls.Load() != 1 {
		t.Fatalf("retry: %d, %v after %d fills", v, err, calls.Load())
	}
}

// TestCancelledWait: a caller whose ctx ends stops waiting at once, while
// the started fill completes and warms the cache; a caller whose ctx is
// already done never starts one.
func TestCancelledWait(t *testing.T) {
	c := New[string, int](0, 0, nil)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	if _, err := c.Get(dead, "k", value(1, &calls)); !errors.Is(err, context.Canceled) || c.Len() != 0 || calls.Load() != 0 {
		t.Fatalf("cancelled caller: err %v, %d entries, %d fills", err, c.Len(), calls.Load())
	}

	gate := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k", func() (int, error) { <-gate; return 9, nil })
		errc <- err
	}()
	until(func() bool { return c.Stats().Misses == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(gate)
	if v, err := c.Get(context.Background(), "k", value(0, &calls)); err != nil || v != 9 || calls.Load() != 0 {
		t.Fatalf("after the abandoned fill: %d, %v with %d new fills, want its 9", v, err, calls.Load())
	}
}

// TestSeedPeek: Seed installs a completed value unless the key exists,
// in flight or not; Peek sees completed values only and counts a hit.
func TestSeedPeek(t *testing.T) {
	c := New[string, int](0, 0, nil)
	if !c.Seed("a", 1) || c.Seed("a", 2) {
		t.Fatal("Seed: first call must install, the second must lose")
	}
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek a = %d, %v", v, ok)
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("Peek found a missing key")
	}
	var calls atomic.Int64
	if v, err := c.Get(context.Background(), "a", value(5, &calls)); err != nil || v != 1 || calls.Load() != 0 {
		t.Fatalf("Get of a seeded key: %d, %v after %d fills", v, err, calls.Load())
	}

	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get(context.Background(), "b", func() (int, error) { <-gate; return 3, nil })
	}()
	until(func() bool { return c.has("b") })
	if _, ok := c.Peek("b"); ok {
		t.Fatal("Peek returned an in-flight entry")
	}
	if c.Seed("b", 4) {
		t.Fatal("Seed replaced an in-flight entry")
	}
	close(gate)
	<-done
	if v, ok := c.Peek("b"); !ok || v != 3 {
		t.Fatalf("Peek b = %d, %v, want the fill's 3", v, ok)
	}
	if st := c.Stats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 3 hits and 1 miss", st)
	}
}

// saturate holds every fill slot of c with blocked fills, plus extra
// callers queued behind them, and returns the fills' gate, a wait for all
// of them, and the peak of concurrently running fills.
func saturate(t *testing.T, c *Cache[string, int], extra int) (gate chan struct{}, wait func(), peak *atomic.Int64) {
	slots := runtime.GOMAXPROCS(0)
	gate = make(chan struct{})
	started := make(chan struct{}, slots+extra)
	var running atomic.Int64
	peak = new(atomic.Int64)
	var wg sync.WaitGroup
	for i := 0; i < slots+extra; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Get(context.Background(), fmt.Sprint("blocker-", i), func() (int, error) {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				started <- struct{}{}
				<-gate
				running.Add(-1)
				return i, nil
			})
			if err != nil || v != i {
				t.Errorf("blocker %d: %d, %v", i, v, err)
			}
		}(i)
	}
	for i := 0; i < slots; i++ {
		<-started
	}
	until(func() bool { return c.Len() == slots+extra })
	return gate, wg.Wait, peak
}

// TestSaturatedFillHonorsDeadline: with every fill slot busy, a miss waits
// for a slot under its own deadline — it neither runs the fill inline nor
// outlives the deadline — and leaves no entry behind; fills never exceed
// the slot count.
func TestSaturatedFillHonorsDeadline(t *testing.T) {
	c := New[string, int](0, 0, nil)
	gate, wait, peak := saturate(t, c, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var calls atomic.Int64
	start := time.Now()
	_, err := c.Get(ctx, "probe", value(1, &calls))
	if el := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || el > time.Second {
		t.Fatalf("saturated miss: err %v after %v, want DeadlineExceeded in under 1s", err, el)
	}
	if c.has("probe") || calls.Load() != 0 {
		t.Fatalf("abandoned miss left an entry (%v) or ran its fill (%d)", c.has("probe"), calls.Load())
	}
	close(gate)
	wait()
	if p, slots := peak.Load(), int64(runtime.GOMAXPROCS(0)); p > slots {
		t.Fatalf("%d fills ran at once, limit %d", p, slots)
	}
	if st := c.Stats(); st.Misses != int64(runtime.GOMAXPROCS(0)+2) {
		t.Fatalf("misses = %d, want one per fill started", st.Misses)
	}
}

// TestFollowerRetriesAbandonedKey: a caller joined to a key whose
// initiator gave up while waiting for a fill slot retries under its own
// live ctx and gets the value, never the initiator's error.
func TestFollowerRetriesAbandonedKey(t *testing.T) {
	c := New[string, int](0, 0, nil)
	gate, wait, _ := saturate(t, c, 0)

	ictx, icancel := context.WithCancel(context.Background())
	ierr := make(chan error, 1)
	var calls atomic.Int64
	go func() {
		_, err := c.Get(ictx, "k", value(7, &calls))
		ierr <- err
	}()
	until(func() bool { return c.has("k") })
	type result struct {
		v   int
		err error
	}
	fres := make(chan result, 1)
	go func() {
		v, err := c.Get(context.Background(), "k", value(7, &calls))
		fres <- result{v, err}
	}()
	until(func() bool { return c.Stats().Hits == 1 }) // the follower joined
	icancel()
	if err := <-ierr; !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator: %v, want context.Canceled", err)
	}
	close(gate)
	wait()
	r := <-fres
	if r.err != nil || r.v != 7 {
		t.Fatalf("follower: %d, %v, want 7 and no error", r.v, r.err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d fills for k, want 1 (the follower's retry)", n)
	}
}
