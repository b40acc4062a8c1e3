package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/ssta"
)

// workerNode is one in-process worker: a full Server plus its coordinator
// listener (WorkerService). stop severs the transport (listener and every
// live connection) without closing the Server — the test-level analogue
// of kill -9.
type workerNode struct {
	srv  *Server
	addr string
	stop func()
}

func startWorker(t *testing.T, cfg Config, addr string) *workerNode {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = cluster.Serve(ctx, ln, s.WorkerService()) }()
	var once sync.Once
	w := &workerNode{srv: s, addr: ln.Addr().String()}
	w.stop = func() {
		once.Do(func() {
			cancel()
			ln.Close()
		})
	}
	t.Cleanup(func() {
		w.stop()
		s.Close()
	})
	return w
}

// startCluster boots n workers and a coordinator over them, waiting until
// every node has passed its first health check. Long ping intervals keep
// node health under the test's control: only dispatch failures demote.
func startCluster(t *testing.T, n int, coordCfg Config, dial cluster.DialFunc) ([]*workerNode, *Server, *httptest.Server) {
	t.Helper()
	workers := make([]*workerNode, n)
	addrs := make([]string, n)
	for i := range workers {
		workers[i] = startWorker(t, Config{}, "127.0.0.1:0")
		addrs[i] = workers[i].addr
	}
	pool := cluster.NewPool(cluster.PoolConfig{
		Addrs:        addrs,
		Dial:         dial,
		PingInterval: 10 * time.Second,
		PingTimeout:  2 * time.Second,
	})
	coordCfg.Cluster = pool
	s, hs := newTestServer(t, coordCfg)
	waitFor(t, 5*time.Second, "all workers healthy", func() bool {
		return len(pool.Healthy()) == n
	})
	return workers, s, hs
}

// TestClusterSweepMatchesStandalone is the distributed acceptance check: a
// coordinator sharding across two workers answers /v1/sweep — flat and
// hierarchical quad with a module swap — identically to a standalone server
// at 1e-9, while actually dispatching shards and serving worker extractions
// from the remote model-cache tier.
func TestClusterSweepMatchesStandalone(t *testing.T) {
	workers, cs, chs := startCluster(t, 2, Config{}, nil)
	_, shs := newTestServer(t, Config{})

	// An unnamed scenario rides along to pin down global default naming.
	specs := append(testSweepSpecs(), SweepScenarioSpec{ScenarioSpec: ssta.ScenarioSpec{Derate: 1.3}})
	flatReq := SweepRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: specs}
	compareSweepResponses(t, "flat", sweepHTTP(t, chs.URL, flatReq), sweepHTTP(t, shs.URL, flatReq))

	quadReq := SweepRequest{
		ItemSpec: ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
		Scenarios: append(testSweepSpecs(), SweepScenarioSpec{
			ScenarioSpec: ssta.ScenarioSpec{Name: "eco"},
			Swaps:        map[string]SwapSpec{"B": {Bench: "c432", Seed: 2}},
		}),
	}
	compareSweepResponses(t, "quad", sweepHTTP(t, chs.URL, quadReq), sweepHTTP(t, shs.URL, quadReq))

	if got := cs.cluster.dispatches.Load(); got < 2 {
		t.Fatalf("coordinator dispatched %d shards, want >= 2 (both sweeps sharded)", got)
	}
	var workerScenarios, remoteHits int64
	for _, w := range workers {
		workerScenarios += w.srv.metrics.scenariosTotal.Load()
		remoteHits += w.srv.remoteCache.hits.Load()
	}
	if workerScenarios == 0 {
		t.Fatal("no scenario ran on any worker")
	}
	if remoteHits == 0 {
		t.Fatal("quad sweep extracted on workers without a remote model-cache hit")
	}

	// Observability: the cluster block surfaces in /metrics and /healthz.
	if v := metricValue(t, chs.URL, "sstad_cluster_dispatches_total"); v < 2 {
		t.Fatalf("sstad_cluster_dispatches_total = %g, want >= 2", v)
	}
	for _, w := range workers {
		name := `sstad_cluster_node_healthy{node="` + w.addr + `"}`
		if v := metricValue(t, chs.URL, name); v != 1 {
			t.Fatalf("%s = %g, want 1", name, v)
		}
	}
	hz := getHealthz(t, chs.URL)
	cl, ok := hz["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no cluster block: %v", hz)
	}
	nodes, ok := cl["nodes"].([]any)
	if !ok || len(nodes) != 2 {
		t.Fatalf("healthz cluster nodes = %v, want 2", cl["nodes"])
	}
}

// compareSweepResponses asserts two wire-level sweep answers agree at 1e-9:
// names, per-scenario statistics, accounting, and envelope.
func compareSweepResponses(t *testing.T, label string, got, want SweepResponse) {
	t.Helper()
	if got.Completed != want.Completed || got.Scenarios != want.Scenarios || len(got.Results) != len(want.Results) {
		t.Fatalf("%s: accounting %d/%d vs %d/%d", label, got.Completed, got.Scenarios, want.Completed, want.Scenarios)
	}
	for i, w := range want.Results {
		r := got.Results[i]
		if r.Name != w.Name {
			t.Fatalf("%s scenario %d: name %q vs %q", label, i, r.Name, w.Name)
		}
		if (r.Error != "") != (w.Error != "") {
			t.Fatalf("%s scenario %q: error %q vs %q", label, w.Name, r.Error, w.Error)
		}
		if w.Error != "" {
			continue
		}
		if math.Abs(r.MeanPS-w.MeanPS) > 1e-9 || math.Abs(r.StdPS-w.StdPS) > 1e-9 || math.Abs(r.P9987PS-w.P9987PS) > 1e-9 {
			t.Fatalf("%s scenario %q: (%g, %g, %g) vs (%g, %g, %g)",
				label, w.Name, r.MeanPS, r.StdPS, r.P9987PS, w.MeanPS, w.StdPS, w.P9987PS)
		}
		if r.Shared != w.Shared {
			t.Fatalf("%s scenario %q: shared %v vs %v", label, w.Name, r.Shared, w.Shared)
		}
	}
	if math.Abs(got.Envelope.MeanPS-want.Envelope.MeanPS) > 1e-9 ||
		math.Abs(got.Envelope.P9987PS-want.Envelope.P9987PS) > 1e-9 ||
		got.Envelope.Worst != want.Envelope.Worst {
		t.Fatalf("%s: envelope %+v vs %+v", label, got.Envelope, want.Envelope)
	}
	// Regression: distributed sweeps used to lose Report.Top entirely, so
	// clustered responses reported zero verts/edges. Graph stats must
	// survive the shard round-trip and match the standalone answer.
	if got.Verts == 0 || got.Edges == 0 {
		t.Fatalf("%s: clustered sweep lost graph stats: verts=%d edges=%d", label, got.Verts, got.Edges)
	}
	if got.Verts != want.Verts || got.Edges != want.Edges {
		t.Fatalf("%s: graph stats %d/%d vs standalone %d/%d", label, got.Verts, got.Edges, want.Verts, want.Edges)
	}
}

// TestClusterModelPushOncePerNode: a quad sweep pushes the coordinator's
// extracted module to each worker before its first shard, once; repeat
// sweeps push nothing, and neither does a transport failure on a node
// whose worker did not restart (it still holds the model).
func TestClusterModelPushOncePerNode(t *testing.T) {
	workers, cs, chs := startCluster(t, 2, Config{}, nil)
	req := SweepRequest{
		ItemSpec:  ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
		Scenarios: testSweepSpecs(),
	}
	sweepHTTP(t, chs.URL, req)
	sweepHTTP(t, chs.URL, req)
	if got := cs.cluster.modelPushes.Load(); got != 2 {
		t.Fatalf("model pushes after two sweeps = %d, want 2 (one per worker)", got)
	}
	for i, w := range workers {
		if h, m := w.srv.remoteCache.hits.Load(), w.srv.remoteCache.misses.Load(); h != 1 || m != 0 {
			t.Fatalf("worker %d: %d seeded, %d redundant pushes; want 1 and 0", i, h, m)
		}
		if _, misses := w.srv.flow.Cache.Stats(); misses != 0 {
			t.Fatalf("worker %d extracted %d models despite the push", i, misses)
		}
	}

	n := cs.cluster.pool.NodeByAddr(workers[0].addr)
	n.Errors.Add(1) // as if a dispatch to this node had failed in transport
	sweepHTTP(t, chs.URL, req)
	if got := cs.cluster.modelPushes.Load(); got != 2 {
		t.Fatalf("model pushes after a transport failure = %d, want 2", got)
	}
	if m := workers[0].srv.remoteCache.misses.Load(); m != 0 {
		t.Fatalf("worker counted %d redundant pushes, want 0", m)
	}
	if v := metricValue(t, chs.URL, `sstad_cluster_model_pushes_total{result="accepted"}`); v != 2 {
		t.Fatalf(`sstad_cluster_model_pushes_total{result="accepted"} = %g, want 2`, v)
	}
}

// TestClusterWorkerRestartRepushes: a worker that restarts on the same
// address between two sweeps, with no failed exchange in between, answers
// its next health check with a new boot id, and the coordinator pushes it
// the model exactly once more instead of letting it extract.
func TestClusterWorkerRestartRepushes(t *testing.T) {
	w := startWorker(t, Config{}, "127.0.0.1:0")
	pool := cluster.NewPool(cluster.PoolConfig{Addrs: []string{w.addr}, PingInterval: 20 * time.Millisecond})
	cs, chs := newTestServer(t, Config{Cluster: pool})
	node := pool.NodeByAddr(w.addr)
	waitFor(t, 5*time.Second, "worker healthy", func() bool { return node.Healthy() && node.BootID() != "" })
	req := SweepRequest{
		ItemSpec:  ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
		Scenarios: testSweepSpecs(),
	}
	sweepHTTP(t, chs.URL, req)
	if got := cs.cluster.modelPushes.Load(); got != 1 {
		t.Fatalf("model pushes after the first sweep = %d, want 1", got)
	}

	boot := node.BootID()
	w.stop()
	w = startWorker(t, Config{}, w.addr)
	waitFor(t, 5*time.Second, "restarted worker's boot id", func() bool {
		id := node.BootID()
		return id != boot && id != "" && node.Healthy()
	})
	sweepHTTP(t, chs.URL, req)
	if got := cs.cluster.modelPushes.Load(); got != 2 {
		t.Fatalf("model pushes after the restart = %d, want 2", got)
	}
	if h := w.srv.remoteCache.hits.Load(); h != 1 {
		t.Fatalf("restarted worker seeded %d pushed models, want 1", h)
	}
	if _, misses := w.srv.flow.Cache.Stats(); misses != 0 {
		t.Fatalf("restarted worker extracted %d models despite the push", misses)
	}
}

// TestClusterOfOneMatchesStandalone: the degenerate cluster behaves exactly
// like standalone — same answers, everything dispatched to the one worker.
func TestClusterOfOneMatchesStandalone(t *testing.T) {
	_, cs, chs := startCluster(t, 1, Config{}, nil)
	_, shs := newTestServer(t, Config{})
	req := SweepRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: testSweepSpecs()}
	compareSweepResponses(t, "one-node", sweepHTTP(t, chs.URL, req), sweepHTTP(t, shs.URL, req))
	if cs.cluster.dispatches.Load() == 0 {
		t.Fatal("one-node cluster did not dispatch")
	}
	if cs.cluster.localFallbacks.Load() != 0 {
		t.Fatal("one-node cluster fell back locally")
	}
}

// TestClusterSweepSSE: SSE delivery through the distributed path — one
// scenario event per scenario (streamed back from the workers) and a
// summary equal to the synchronous answer.
func TestClusterSweepSSE(t *testing.T) {
	_, _, chs := startCluster(t, 2, Config{}, nil)
	req := SweepRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: testSweepSpecs()}
	want := sweepHTTP(t, chs.URL, req)

	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, chs.URL+"/v1/sweep", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	r, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("SSE: status %d content-type %q: %s", r.StatusCode, r.Header.Get("Content-Type"), raw)
	}
	evs := parseSSE(t, raw)
	if len(evs) != len(req.Scenarios)+1 {
		t.Fatalf("got %d events, want %d scenario + 1 summary:\n%s", len(evs), len(req.Scenarios), raw)
	}
	seen := make(map[int]bool)
	for _, ev := range evs[:len(req.Scenarios)] {
		if ev.name != "scenario" {
			t.Fatalf("event %q before summary", ev.name)
		}
		var sc SweepScenarioEvent
		if err := json.Unmarshal(ev.data, &sc); err != nil {
			t.Fatalf("scenario event: %v: %s", err, ev.data)
		}
		if sc.Error != "" || seen[sc.Index] {
			t.Fatalf("scenario event %+v (err or duplicate index)", sc)
		}
		seen[sc.Index] = true
		w := want.Results[sc.Index]
		if sc.Name != w.Name || math.Abs(sc.MeanPS-w.MeanPS) > 1e-9 {
			t.Fatalf("scenario event %+v vs sync %+v", sc, w)
		}
	}
	var sum SweepResponse
	if evs[len(evs)-1].name != "summary" {
		t.Fatalf("final event %q, want summary", evs[len(evs)-1].name)
	}
	if err := json.Unmarshal(evs[len(evs)-1].data, &sum); err != nil {
		t.Fatal(err)
	}
	compareSweepResponses(t, "sse-summary", sum, want)
}

// TestClusterSessionAffinity: sessions created through the coordinator pin
// to a worker and are served through the proxy byte-compatibly — create
// view, incremental edits, SSE edit streams, GET, DELETE — while the
// coordinator itself holds no session state.
func TestClusterSessionAffinity(t *testing.T) {
	workers, cs, chs := startCluster(t, 2, Config{}, nil)

	create := SessionCreateRequest{
		ItemSpec: ItemSpec{Bench: "c432", Seed: 1},
		Scenarios: []SweepScenarioSpec{
			{ScenarioSpec: ssta.ScenarioSpec{Name: "unit"}},
			{ScenarioSpec: ssta.ScenarioSpec{Name: "hot", Derate: 1.15}},
		},
	}
	v := createSession(t, chs.URL, create)
	if v.Kind != "flat" || v.Sweep == nil || len(v.Sweep.Results) != 2 {
		t.Fatalf("unexpected proxied create view: %+v", v)
	}
	if cs.sessions.len() != 0 {
		t.Fatalf("coordinator holds %d sessions, want 0 (state lives on the worker)", cs.sessions.len())
	}
	if got := cs.cluster.routedSessions(); got != 1 {
		t.Fatalf("routed sessions = %d, want 1", got)
	}
	onWorkers := 0
	for _, w := range workers {
		onWorkers += w.srv.sessions.len()
	}
	if onWorkers != 1 {
		t.Fatalf("%d sessions across workers, want 1", onWorkers)
	}

	// Direct reference: identical pipeline, identical edits.
	flow := ssta.DefaultFlow()
	g, _, err := flow.BenchGraph("c432", 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flow.NewGraphSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ref.Delay().Mean() - v.MeanPS); d > 1e-9 {
		t.Fatalf("proxied create mean differs from direct by %g", d)
	}
	got := applyEdits(t, chs.URL, v.ID, SessionEditRequest{Edits: []EditSpec{
		{Op: "scale_delay", Edge: 5, Scale: 1.5},
	}})
	rep, err := ref.Apply(context.Background(), []ssta.Edit{{Op: ssta.EditScaleDelay, Edge: 5, Scale: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Applied != 1 || math.Abs(got.MeanPS-rep.Delay.Mean()) > 1e-9 {
		t.Fatalf("proxied edit %+v vs direct mean %g", got, rep.Delay.Mean())
	}

	// SSE edit stream crosses the proxy intact: scenario events then summary.
	edits, _ := json.Marshal(SessionEditRequest{Edits: []EditSpec{{Op: "scale_delay", Edge: 7, Scale: 1.25}}})
	hreq, _ := http.NewRequest(http.MethodPost, chs.URL+"/v1/sessions/"+v.ID+"/edits", bytes.NewReader(edits))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	r, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("proxied edit SSE: status %d content-type %q: %s", r.StatusCode, r.Header.Get("Content-Type"), raw)
	}
	evs := parseSSE(t, raw)
	if len(evs) != 3 || evs[0].name != "scenario" || evs[2].name != "summary" {
		t.Fatalf("proxied edit SSE events: %d (%s)", len(evs), raw)
	}

	// GET reflects both edit batches; DELETE unpins and 404s afterwards.
	gresp, gdata := httpGet(t, chs.URL+"/v1/sessions/"+v.ID)
	if gresp.StatusCode != http.StatusOK || !strings.Contains(string(gdata), `"edits":2`) {
		t.Fatalf("proxied GET: %d %s", gresp.StatusCode, gdata)
	}
	dreq, _ := http.NewRequest(http.MethodDelete, chs.URL+"/v1/sessions/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("proxied DELETE: %d", dresp.StatusCode)
	}
	if got := cs.cluster.routedSessions(); got != 0 {
		t.Fatalf("routed sessions after delete = %d, want 0", got)
	}
	gresp, _ = httpGet(t, chs.URL+"/v1/sessions/"+v.ID)
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404", gresp.StatusCode)
	}
}

// TestClusterWorkerDeathFailover: with pings too slow to notice, a worker
// whose transport dies is discovered by the dispatch itself; its shard
// re-homes to the survivor and the sweep still answers standalone-identical
// results. The request never fails.
func TestClusterWorkerDeathFailover(t *testing.T) {
	workers, cs, chs := startCluster(t, 2, Config{}, nil)
	_, shs := newTestServer(t, Config{})

	req := SweepRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: testSweepSpecs()}
	compareSweepResponses(t, "pre-kill", sweepHTTP(t, chs.URL, req), sweepHTTP(t, shs.URL, req))

	// Sever one worker's transport. The 10s ping interval guarantees the
	// pool still lists it healthy when the next sweep dispatches.
	workers[0].stop()
	compareSweepResponses(t, "post-kill", sweepHTTP(t, chs.URL, req), sweepHTTP(t, shs.URL, req))

	if cs.cluster.retries.Load() == 0 {
		t.Fatal("dead worker's shard was not retried")
	}
	if cs.cluster.failovers.Load() == 0 {
		t.Fatal("dead worker's shard did not fail over")
	}
	if v := metricValue(t, chs.URL, "sstad_cluster_failovers_total"); v < 1 {
		t.Fatalf("sstad_cluster_failovers_total = %g, want >= 1", v)
	}

	// Kill the survivor too: the sweep runs entirely locally and still
	// answers the same numbers.
	workers[1].stop()
	compareSweepResponses(t, "all-dead", sweepHTTP(t, chs.URL, req), sweepHTTP(t, shs.URL, req))
	if cs.cluster.localFallbacks.Load() == 0 {
		t.Fatal("sweep with no live workers did not fall back locally")
	}
}

// TestClusterTransportFaults: dropped and torn requests (the
// fault-injection matrix at the serving layer — the transport-level cases
// live in internal/cluster). Each fault surfaces as a failed dispatch; the
// retry ladder absorbs it and the answer stays standalone-identical.
func TestClusterTransportFaults(t *testing.T) {
	_, shs := newTestServer(t, Config{})
	req := SweepRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: testSweepSpecs()}
	want := sweepHTTP(t, shs.URL, req)

	cases := []struct {
		name string
		cfg  cluster.FaultConfig
	}{
		// Write 1 on the pool conn is the health-check ping; write 2 is the
		// first shard dispatch (each request is one Write). Dropping or
		// tearing it kills that exchange; the retry dials a clean connection
		// (per-connection fault counters).
		{"dropped", cluster.FaultConfig{DropAfterWrites: 2}},
		{"torn", cluster.FaultConfig{TearAtWrite: 2}},
		{"latent", cluster.FaultConfig{WriteLatency: 30 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := func(ctx context.Context, addr string) (net.Conn, error) {
				d := net.Dialer{Timeout: 2 * time.Second}
				return d.DialContext(ctx, "tcp", addr)
			}
			fd := cluster.NewFaultDialer(base, tc.cfg)
			_, cs, chs := startCluster(t, 1, Config{}, fd.Dial)
			got := sweepHTTP(t, chs.URL, req)
			compareSweepResponses(t, tc.name, got, want)
			if tc.cfg.WriteLatency == 0 && cs.cluster.retries.Load() == 0 && cs.cluster.localFallbacks.Load() == 0 {
				t.Fatalf("%s fault absorbed without a retry or fallback", tc.name)
			}
			// The faulty path must not have dropped or duplicated scenario
			// accounting on the coordinator.
			if got.Completed != want.Completed {
				t.Fatalf("%s: completed %d vs %d", tc.name, got.Completed, want.Completed)
			}
		})
	}
}

// TestRestoredFlatSurfaced (satellite): a hierarchical session restored
// from its checkpoint re-enters life as a flat session; the view and
// /healthz must say so, since criticality queries lose hierarchy info.
func TestRestoredFlatSurfaced(t *testing.T) {
	dir := t.TempDir()
	backend := func() store.Backend {
		fs, err := store.NewFS(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}

	s1, hs1 := crashableServer(t, Config{Store: backend(), StoreFlushInterval: 10 * time.Millisecond})
	v := createSession(t, hs1.URL, SessionCreateRequest{
		ItemSpec: ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
	})
	if v.Kind != "hier" || v.RestoredFlat {
		t.Fatalf("fresh quad session view: %+v", v)
	}
	waitFor(t, 5*time.Second, "session checkpoint on disk", func() bool {
		_, err := os.Stat(filepath.Join(dir, "sessions", v.ID+".snap"))
		return err == nil
	})
	s1.crash()

	_, hs2 := newTestServer(t, Config{Store: backend(), StoreFlushInterval: 10 * time.Millisecond})
	waitFor(t, 30*time.Second, "warm start finished", func() bool {
		return getHealthz(t, hs2.URL)["recovering"] == false
	})
	resp, data := httpGet(t, hs2.URL+"/v1/sessions/"+v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored session GET: %d %s", resp.StatusCode, data)
	}
	var rv SessionView
	if err := json.Unmarshal(data, &rv); err != nil {
		t.Fatal(err)
	}
	if !rv.RestoredFlat {
		t.Fatalf("restored hier session not flagged restored_flat: %s", data)
	}
	if !strings.Contains(string(data), `"restored_flat":true`) {
		t.Fatalf("restored_flat missing from wire body: %s", data)
	}
	hz := getHealthz(t, hs2.URL)
	if n, ok := hz["sessions_restored_flat"].(float64); !ok || n != 1 {
		t.Fatalf("healthz sessions_restored_flat = %v, want 1", hz["sessions_restored_flat"])
	}
}

// TestPrepWarmAcrossRestart (satellite): a sweep of a hierarchical design
// stamps the design's prep identity; after a restart over the same store,
// the warm start rebuilds and re-stitches it, so the daemon's FIRST sweep
// hits the prep cache instead of recomputing partition/PCA/replacements.
func TestPrepWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	backend := func() store.Backend {
		fs, err := store.NewFS(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	req := SweepRequest{
		ItemSpec:  ItemSpec{Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
		Scenarios: testSweepSpecs(),
	}

	s1 := New(Config{Store: backend(), StoreFlushInterval: 10 * time.Millisecond})
	hs1 := httptest.NewServer(s1.Handler())
	want := sweepHTTP(t, hs1.URL, req)
	hs1.Close()
	s1.Close() // graceful: the final flush writes the prep stamp
	if _, err := os.Stat(filepath.Join(dir, "preps", "quad-c432-s1-g0-full.snap")); err != nil {
		t.Fatalf("prep stamp not on disk after shutdown: %v", err)
	}

	hits0, misses0 := ssta.PrepCacheStats()
	_, hs2 := newTestServer(t, Config{Store: backend(), StoreFlushInterval: 10 * time.Millisecond})
	waitFor(t, 30*time.Second, "warm start finished", func() bool {
		return getHealthz(t, hs2.URL)["recovering"] == false
	})
	// The warm start itself computes the prep once (a miss); the first
	// request must then hit it.
	_, missesWarm := ssta.PrepCacheStats()
	if missesWarm == misses0 {
		t.Fatal("warm start did not rebuild the stamped prep")
	}
	got := sweepHTTP(t, hs2.URL, req)
	compareSweepResponses(t, "post-restart", got, want)
	hits1, misses1 := ssta.PrepCacheStats()
	if hits1 <= hits0 {
		t.Fatalf("first sweep after restart missed the prep cache (hits %d -> %d)", hits0, hits1)
	}
	if misses1 != missesWarm {
		t.Fatalf("first sweep after restart recomputed the prep (misses %d -> %d)", missesWarm, misses1)
	}
}
