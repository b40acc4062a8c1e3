package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/ssta"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// crashableServer boots a server without the auto-Close cleanup so a test
// can simulate a crash: stop the goroutines WITHOUT the final flush that
// a graceful Close performs.
func crashableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// crash kills the background goroutines with no final flush — whatever the
// write-behind pipeline had not flushed is lost, as in a real crash.
func (s *Server) crash() {
	s.baseStop()
	s.wg.Wait()
}

func getHealthz(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

func TestModelKeyRoundTrip(t *testing.T) {
	cases := []graphKey{
		{bench: "c432", seed: 1},
		{bench: "c880", seed: -7},
		{mult: 8},
	}
	for _, gk := range cases {
		key, ok := modelKey(gk)
		if !ok {
			t.Fatalf("modelKey(%+v) rejected", gk)
		}
		back, ok := parseModelKey(key)
		if !ok || back != gk {
			t.Fatalf("parseModelKey(%q) = %+v, %v; want %+v", key, back, ok, gk)
		}
	}
	if _, ok := modelKey(graphKey{}); ok {
		t.Fatal("empty graph key got a model key")
	}
	if _, ok := modelKey(graphKey{bench: "../evil", seed: 1}); ok {
		t.Fatal("path-traversal bench name got a model key")
	}
	for _, bad := range []string{"models/what.snap", "models/bench-x.snap", "sessions/sess-1.snap", "models/mult-0.snap"} {
		if _, ok := parseModelKey(bad); ok {
			t.Fatalf("parseModelKey(%q) accepted", bad)
		}
	}
}

// TestStoreDegradationNeverFailsRequests is the degradation contract: with
// a backend failing 100% of writes, analyze, sweep, and session traffic
// all succeed; the trouble shows up only in /healthz and /metrics.
func TestStoreDegradationNeverFailsRequests(t *testing.T) {
	fault := store.NewFault(store.NewMem(), store.FaultConfig{
		FailEveryN: 1,
		Only:       map[store.Op]bool{store.OpPut: true},
	})
	_, hs := newTestServer(t, Config{Store: fault, StoreFlushInterval: 10 * time.Millisecond})

	resp := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 1, Extract: true}}})
	if resp.Results[0].Error != "" {
		t.Fatalf("analyze failed under store faults: %s", resp.Results[0].Error)
	}
	sweepHTTP(t, hs.URL, SweepRequest{
		ItemSpec:  ItemSpec{Bench: "c432", Seed: 1},
		Scenarios: testSweepSpecs(),
	})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	out := applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 3, Scale: 1.2},
	}})
	if out.Applied != 1 {
		t.Fatalf("edit not applied under store faults: %+v", out)
	}

	// The store flips to degraded after enough failed flush rounds without
	// a single request having noticed.
	waitFor(t, 5*time.Second, "degraded store in /healthz", func() bool {
		body := getHealthz(t, hs.URL)
		st, ok := body["store"].(map[string]any)
		if !ok {
			return false
		}
		degraded, _ := st["degraded"].(bool)
		errs, _ := st["errors"].(float64)
		return degraded && errs > 0
	})

	// And the error counters are on /metrics.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `sstad_store_ops_total{op="put"}`) {
		t.Fatalf("metrics missing store ops counter:\n%s", text)
	}
	if strings.Contains(text, `sstad_store_errors_total{op="put"} 0`) {
		t.Fatal("metrics report zero put errors under an always-failing store")
	}

	// Requests still succeed now that the store is formally degraded.
	resp = analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 2}}})
	if resp.Results[0].Error != "" {
		t.Fatalf("analyze failed on degraded store: %s", resp.Results[0].Error)
	}
}

// TestCrashRecoveryRestoresSession is the crash-safety acceptance test:
// create + edit a session, let the write-behind flusher persist it, kill
// the server without a final flush, boot a new one on the same store, and
// check the restored session answers an identical edit batch identically.
func TestCrashRecoveryRestoresSession(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	s1, hs1 := crashableServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})

	v := createSession(t, hs1.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	applyEdits(t, hs1.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 3, Scale: 1.25},
		{Op: "set_nominal", Edge: 10, ValuePS: 42.5},
		{Op: "remove_edge", Edge: 20},
	}})
	key := sessionKey(v.ID)
	waitFor(t, 5*time.Second, "session checkpoint flush", func() bool {
		data, err := mem.Get(ctx, key)
		if err != nil {
			return false
		}
		// The checkpoint must already carry the edits, not just the create.
		cp, err := decodeCheckpoint(data)
		return err == nil && cp.Edits == 3
	})
	s1.crash()

	s2, hs2 := newTestServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})
	waitFor(t, 10*time.Second, "warm start", func() bool {
		return !s2.persist.recovering.Load() && s2.sessions.len() == 1
	})

	// The restored session is served under its old id with its history.
	resp, err := http.Get(hs2.URL + "/v1/sessions/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rv SessionView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rv.ID != v.ID || rv.Edits != 3 {
		t.Fatalf("restored session view: status %d, %+v", resp.StatusCode, rv)
	}

	// Reference: the same pipeline run fresh in-process.
	flow := ssta.DefaultFlow()
	g, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flow.NewGraphSession(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(ctx, []ssta.Edit{
		{Op: ssta.EditScaleDelay, Edge: 3, Scale: 1.25},
		{Op: ssta.EditSetNominal, Edge: 10, Value: 42.5},
		{Op: ssta.EditRemoveEdge, Edge: 20},
	}); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ref.Delay().Mean() - rv.MeanPS); d > 1e-9 {
		t.Fatalf("restored mean differs from reference by %g", d)
	}

	// An identical post-restart edit batch answers identically.
	out := applyEdits(t, hs2.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 7, Scale: 0.8},
	}})
	rep, err := ref.Apply(ctx, []ssta.Edit{{Op: ssta.EditScaleDelay, Edge: 7, Scale: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(rep.Delay.Mean() - out.MeanPS); d > 1e-9 {
		t.Fatalf("post-restore edit mean differs from reference by %g", d)
	}
	if d := math.Abs(rep.Delay.Std() - out.StdPS); d > 1e-9 {
		t.Fatalf("post-restore edit std differs from reference by %g", d)
	}
}

// TestDeleteRemovesCheckpoint: create -> delete -> restart -> 404. A
// deleted session must not resurrect from its checkpoint.
func TestDeleteRemovesCheckpoint(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	s1, hs1 := crashableServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})

	v := createSession(t, hs1.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	key := sessionKey(v.ID)
	waitFor(t, 5*time.Second, "checkpoint flush", func() bool {
		_, err := mem.Get(ctx, key)
		return err == nil
	})

	req, _ := http.NewRequest(http.MethodDelete, hs1.URL+"/v1/sessions/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, "checkpoint delete flush", func() bool {
		_, err := mem.Get(ctx, key)
		return err != nil
	})
	s1.crash()

	s2, hs2 := newTestServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})
	waitFor(t, 10*time.Second, "warm start", func() bool {
		return !s2.persist.recovering.Load()
	})
	resp, err = http.Get(hs2.URL + "/v1/sessions/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: status %d", resp.StatusCode)
	}
}

// TestEvictionDropsCheckpoint: idle-TTL eviction also deletes the durable
// checkpoint, so an evicted session stays gone across a restart.
func TestEvictionDropsCheckpoint(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	_, hs := newTestServer(t, Config{
		Store:              mem,
		StoreFlushInterval: 10 * time.Millisecond,
		SessionTTL:         150 * time.Millisecond,
	})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	key := sessionKey(v.ID)
	waitFor(t, 5*time.Second, "checkpoint flush", func() bool {
		_, err := mem.Get(ctx, key)
		return err == nil
	})
	waitFor(t, 10*time.Second, "eviction to delete the checkpoint", func() bool {
		_, err := mem.Get(ctx, key)
		return err != nil
	})
	resp, err := http.Get(hs.URL + "/v1/sessions/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still live: status %d", resp.StatusCode)
	}
}

// TestWarmStartQuarantinesCorrupt: damaged and version-skewed checkpoints
// are moved aside and counted; good ones still restore; boot never fails.
func TestWarmStartQuarantinesCorrupt(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	s1, hs1 := crashableServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})
	v := createSession(t, hs1.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	waitFor(t, 5*time.Second, "checkpoint flush", func() bool {
		_, err := mem.Get(ctx, sessionKey(v.ID))
		return err == nil
	})
	s1.crash()

	// Plant damage next to the good checkpoint: raw garbage, a truncated
	// copy, and a version-skewed envelope.
	good, err := mem.Get(ctx, sessionKey(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	_ = mem.Put(ctx, "sessions/sess-90.snap", []byte("this is not a checkpoint"))
	_ = mem.Put(ctx, "sessions/sess-91.snap", good[:len(good)/3])
	_ = mem.Put(ctx, "sessions/sess-92.snap", store.Seal(checkpointKind, checkpointVersion+1, []byte("{}")))
	_ = mem.Put(ctx, "models/bench-c432-s1.snap", []byte("junk model"))

	s2, _ := newTestServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})
	waitFor(t, 10*time.Second, "warm start", func() bool {
		return !s2.persist.recovering.Load()
	})
	if got := s2.persist.quarantined.Load(); got != 4 {
		t.Fatalf("quarantined %d snapshots, want 4 (%v)", got, mem.Quarantined())
	}
	if s2.sessions.len() != 1 {
		t.Fatalf("good session not restored: %d live", s2.sessions.len())
	}
	if _, ok := s2.sessions.get(v.ID); !ok {
		t.Fatalf("restored session has wrong id")
	}
	// The damaged keys are out of the listing (no re-quarantine loop on
	// the next boot) but their bytes are preserved for forensics.
	keys, err := mem.List(ctx, sessionKeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != sessionKey(v.ID) {
		t.Fatalf("quarantined keys still listed: %v", keys)
	}
	if len(mem.Quarantined()) != 4 {
		t.Fatalf("quarantine preserved %d entries, want 4", len(mem.Quarantined()))
	}
}

// TestWarmStartSeedsModelCache: a model extracted before the crash is
// decoded at boot and seeded into the extraction cache, so the first
// extraction after restart is a hit, not a recompute.
func TestWarmStartSeedsModelCache(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	s1, hs1 := crashableServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})
	resp := analyze(t, hs1.URL, AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 1, Extract: true}}})
	if resp.Results[0].Error != "" || resp.Results[0].ModelVerts == 0 {
		t.Fatalf("extract item failed: %+v", resp.Results[0])
	}
	mkey, _ := modelKey(graphKey{bench: "c432", seed: 1})
	waitFor(t, 5*time.Second, "model checkpoint flush", func() bool {
		_, err := mem.Get(ctx, mkey)
		return err == nil
	})
	s1.crash()

	s2, hs2 := newTestServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})
	waitFor(t, 10*time.Second, "warm start", func() bool {
		return !s2.persist.recovering.Load()
	})
	if entries := s2.flow.Cache.Metrics().Entries; entries != 1 {
		t.Fatalf("extraction cache has %d entries after warm start, want 1", entries)
	}
	// Same item again: the extraction must be a cache hit.
	before := s2.flow.Cache.Metrics()
	resp = analyze(t, hs2.URL, AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 1, Extract: true}}})
	if resp.Results[0].Error != "" {
		t.Fatalf("extract item failed after restart: %+v", resp.Results[0])
	}
	after := s2.flow.Cache.Metrics()
	if after.Hits <= before.Hits || after.Misses != before.Misses {
		t.Fatalf("extraction after warm start was not a pure hit: before %+v, after %+v", before, after)
	}
}

// TestCloseFlushesPendingState: a graceful shutdown flushes checkpoints
// the write-behind pipeline had not gotten to (flush interval far beyond
// the test's lifetime).
func TestCloseFlushesPendingState(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	s := New(Config{Store: mem, StoreFlushInterval: time.Hour})
	hs := httptest.NewServer(s.Handler())
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	hs.Close()
	if _, err := mem.Get(ctx, sessionKey(v.ID)); err == nil {
		t.Fatal("checkpoint flushed before Close despite 1h interval")
	}
	s.Close()
	data, err := mem.Get(ctx, sessionKey(v.ID))
	if err != nil {
		t.Fatalf("final flush did not persist the session: %v", err)
	}
	if _, err := decodeCheckpoint(data); err != nil {
		t.Fatalf("final-flush checkpoint does not decode: %v", err)
	}
}

// TestWarmStartQuarantinesVersionOneCheckpoint: a checkpoint in the
// version-1 layout, which wrote each edge delay as JSON numbers, is
// version skew for the packed-delay reader. Boot succeeds, the checkpoint
// is quarantined and counted, and requests are served as usual.
func TestWarmStartQuarantinesVersionOneCheckpoint(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	v1 := `{"id":"sess-7","name":"pair","created_unix_ms":1,"edits":0,"session":{"graph":{` +
		`"globals":1,"components":1,"num_verts":2,` +
		`"edges":[{"from":0,"to":1,"nominal":3,"glob":[0.1],"loc":[0.2],"rand":0.3}],` +
		`"inputs":[0],"outputs":[1],"input_names":["a"],"output_names":["y"]},"mean_ps":3}}`
	data := store.Seal(checkpointKind, 1, []byte(v1))
	if _, err := decodeCheckpoint(data); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("version-1 checkpoint decodes with %v, want version skew", err)
	}
	if err := mem.Put(ctx, sessionKey("sess-7"), data); err != nil {
		t.Fatal(err)
	}

	s, hs := newTestServer(t, Config{Store: mem, StoreFlushInterval: 10 * time.Millisecond})
	waitFor(t, 10*time.Second, "warm start", func() bool {
		return !s.persist.recovering.Load()
	})
	if got := metricValue(t, hs.URL, "sstad_store_quarantined_total"); got != 1 {
		t.Fatalf("sstad_store_quarantined_total = %g, want 1", got)
	}
	if q := mem.Quarantined(); len(q) != 1 || s.sessions.len() != 0 {
		t.Fatalf("quarantined %v with %d live sessions; want the one checkpoint and none", q, s.sessions.len())
	}

	resp := analyze(t, hs.URL, AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 1}}})
	if resp.Results[0].Error != "" {
		t.Fatalf("analyze failed after a skewed warm start: %s", resp.Results[0].Error)
	}
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	if out := applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 3, Scale: 1.2},
	}}); out.Applied != 1 {
		t.Fatalf("edit not applied after a skewed warm start: %+v", out)
	}
	r, err := http.Get(hs.URL + "/v1/sessions/sess-7")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("skewed checkpoint's session served: status %d", r.StatusCode)
	}
}

// TestStoreFlushMetrics: the flusher accounts the bytes it writes and the
// time its rounds take; requests alone move neither counter.
func TestStoreFlushMetrics(t *testing.T) {
	mem := store.NewMem()
	ctx := context.Background()
	s, hs := newTestServer(t, Config{Store: mem, StoreFlushInterval: time.Hour})
	v := createSession(t, hs.URL, SessionCreateRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}})
	applyEdits(t, hs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 3, Scale: 1.2},
	}})
	for _, name := range []string{"sstad_store_put_bytes_total", "sstad_store_flush_seconds_total"} {
		if got := metricValue(t, hs.URL, name); got != 0 {
			t.Fatalf("%s = %g before any flush round, want 0", name, got)
		}
	}

	s.persist.flush(ctx) // one round, as the flusher's ticker would run it
	data, err := mem.Get(ctx, sessionKey(v.ID))
	if err != nil {
		t.Fatalf("flush round did not write the checkpoint: %v", err)
	}
	if got := metricValue(t, hs.URL, "sstad_store_put_bytes_total"); got != float64(len(data)) {
		t.Fatalf("sstad_store_put_bytes_total = %g, want the checkpoint's %d bytes", got, len(data))
	}
	if got := metricValue(t, hs.URL, "sstad_store_flush_seconds_total"); !(got > 0) {
		t.Fatalf("sstad_store_flush_seconds_total = %g after a flush round, want > 0", got)
	}
}
