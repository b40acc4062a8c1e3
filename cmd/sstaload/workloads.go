package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/ssta"
)

// Request timeouts carried in every body, so a stalled request becomes a
// counted failure instead of a hang.
const (
	shortTimeoutMS = 2000 // analyze and session requests
	sweepTimeoutMS = 5000 // sweeps
)

// analyze-mix subjects: six generated benchmarks x three seeds x clocked or
// not is 36 graphs, under sstad's 64-entry graph cache; extraction is
// requested on the four smallest only.
var analyzeBenches = []string{"c432", "c880", "c1355", "c1908", "c3540", "c7552"}

const benchSeeds = 3

func isExtractBench(b string) bool {
	return b == "c432" || b == "c880" || b == "c1355" || b == "c1908"
}

// workload is one traffic mix against one server layout (doc.go says
// why each exists).
type workload struct {
	name string
	// rate is the open-loop arrival rate (requests/s).
	rate float64
	// cluster runs a coordinator and two workers instead of one
	// standalone daemon.
	cluster bool
	// store gives the daemon a durable-state directory (write-behind
	// checkpointing on).
	store bool
	// newGen returns the deterministic request generator for a seed.
	newGen func(seed int64, st *state) generator
	// prepare computes the oracle tables before any daemon starts.
	prepare func(ctx context.Context, flow *ssta.Flow, st *state) error
	// warm fills the daemon's caches (and creates sessions) after boot.
	warm func(ctx context.Context, a *api, st *state) error
	// check validates one answer inline.
	check func(st *state, r *Request, body []byte) error
	// final, when set, runs the after-phase checks: it restores mutated
	// state and re-derives the sampled answers in-process. Each returned
	// failure is one failed operation.
	final func(ctx context.Context, a *api, st *state, g generator, sampled []outcome) (attempted int, failures []failure)
	// refClass and refReplay name the request class whose server time is
	// compared with an in-process replay metric (front overhead).
	refClass, refReplay string
}

// generator yields a workload's deterministic request stream.
type generator interface {
	next() Request
}

// state is what a workload run knows beyond its generator: oracle tables
// and the sessions created at set-up.
type state struct {
	analyze map[string]analyzeExpect
	design  *ssta.Design // quad-c1355 seed 1, the sweep subject
	// sessions (session-ecos), by index into sessionSpecs: ids, edge
	// counts, the oracle's creation means and the daemon's.
	sessIDs     []string
	sessEdges   []int
	sessMeans   []float64
	sessCreated []float64
}

var workloads = []*workload{
	{
		name: "analyze-mix",
		rate: 300,
		newGen: func(seed int64, _ *state) generator {
			return &analyzeGen{rng: rand.New(rand.NewSource(seed*7919 + 1))}
		},
		prepare:   prepareAnalyze,
		warm:      warmAnalyze,
		check:     checkAnalyze,
		refClass:  "analyze/c7552",
		refReplay: "ssta.analyze_ms.c7552",
	},
	{
		name: "sweep-wide",
		rate: 60,
		newGen: func(seed int64, _ *state) generator {
			return &sweepGen{rng: rand.New(rand.NewSource(seed*7919 + 2)), scenarios: sweepScenarios}
		},
		prepare:   prepareSweep,
		warm:      func(ctx context.Context, a *api, st *state) error { return warmSweep(ctx, a, 2) },
		check:     checkSweepShape,
		final:     finalSweep,
		refClass:  "sweep",
		refReplay: sweepReplay,
	},
	{
		name:  "session-ecos",
		rate:  200,
		store: true,
		newGen: func(seed int64, st *state) generator {
			return newSessionGen(seed*7919+3, st.sessEdges)
		},
		prepare:   prepareSessions,
		warm:      warmSessions,
		check:     checkSession,
		final:     finalSessions,
		refClass:  "edit",
		refReplay: "ssta.session_apply_us.flat",
	},
	{
		name:    "cluster-sweep",
		rate:    60,
		cluster: true,
		newGen: func(seed int64, _ *state) generator {
			return &sweepGen{rng: rand.New(rand.NewSource(seed*7919 + 4)), scenarios: sweepScenarios, sse: 0.25}
		},
		prepare:   prepareSweep,
		warm:      func(ctx context.Context, a *api, st *state) error { return warmSweep(ctx, a, 3) },
		check:     checkSweepShape,
		final:     finalSweep,
		refClass:  "sweep",
		refReplay: sweepReplay,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// syncGen serializes a generator shared by concurrent senders.
type syncGen struct {
	mu sync.Mutex
	g  generator
}

func (s *syncGen) next() Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.next()
}

// plan draws a Poisson arrival schedule at rate for a phase of nominal
// length dur and fills each arrival with the generator's next request. The
// request count is fixed (rate x dur), so a phase always has the samples
// its tail percentile needs; its wall-clock length varies slightly.
func plan(sched *rand.Rand, g generator, rate float64, dur time.Duration) []Request {
	n := int(math.Round(rate * dur.Seconds()))
	reqs := make([]Request, n)
	t := 0.0
	for i := range reqs {
		t += sched.ExpFloat64() / rate
		reqs[i] = g.next()
		reqs[i].Due = time.Duration(t * 1e9)
	}
	return reqs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("sstaload: marshal %T: %v", v, err)) // plain structs always marshal
	}
	return b
}

// ---------------------------------------------------------------------------
// analyze-mix

type analyzeGen struct {
	rng  *rand.Rand
	seq  int
	prev *Request
}

func (g *analyzeGen) next() Request {
	g.seq++
	// 10% exact repeats of the previous request: the coalescer shares an
	// execution when the two overlap.
	if g.prev != nil && g.rng.Float64() < 0.10 {
		r := *g.prev
		r.Seq = g.seq
		return r
	}
	var it server.ItemSpec
	switch u := g.rng.Float64(); {
	case u < 0.05:
		it = server.ItemSpec{Bench: analyzeBenches[g.rng.Intn(4)], Extract: true}
	case u < 0.30:
		it = server.ItemSpec{Bench: analyzeBenches[g.rng.Intn(len(analyzeBenches))], Clocked: true}
	default:
		it = server.ItemSpec{Bench: analyzeBenches[g.rng.Intn(len(analyzeBenches))]}
	}
	it.Seed = 1 + g.rng.Int63n(benchSeeds)
	class := "analyze/" + it.Bench
	if it.Clocked {
		class += "-clk"
	}
	if it.Extract {
		class += "-x"
	}
	r := Request{
		Seq: g.seq, Class: class, Method: http.MethodPost, Path: "/v1/analyze", Session: -1,
		Body: mustJSON(server.AnalyzeRequest{Items: []server.ItemSpec{it}, TimeoutMS: shortTimeoutMS}),
		Key:  analyzeKey(it.Bench, it.Seed, it.Clocked, it.Extract),
	}
	g.prev = &r
	return r
}

func prepareAnalyze(_ context.Context, flow *ssta.Flow, st *state) error {
	tab, err := analyzeOracle(flow)
	st.analyze = tab
	return err
}

// warmAnalyze builds every graph and extracts every model analyze-mix can
// ask for.
func warmAnalyze(ctx context.Context, a *api, _ *state) error {
	var items []server.ItemSpec
	for _, b := range analyzeBenches {
		for seed := int64(1); seed <= benchSeeds; seed++ {
			items = append(items,
				server.ItemSpec{Bench: b, Seed: seed, Extract: isExtractBench(b)},
				server.ItemSpec{Bench: b, Seed: seed, Clocked: true})
		}
	}
	var resp server.AnalyzeResponse
	if err := a.post(ctx, "/v1/analyze", server.AnalyzeRequest{Items: items, Workers: 2, TimeoutMS: 60000}, &resp); err != nil {
		return err
	}
	for _, r := range resp.Results {
		if r.Error != "" {
			return fmt.Errorf("warm-up %s: %s", r.Name, r.Error)
		}
	}
	return nil
}

func checkAnalyze(st *state, r *Request, body []byte) error {
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return fmt.Errorf("%d results for one item", len(resp.Results))
	}
	want, ok := st.analyze[r.Key]
	if !ok {
		return fmt.Errorf("no oracle entry %s", r.Key)
	}
	if err := checkItem(&resp.Results[0], want); err != nil {
		return fmt.Errorf("%s: %w", r.Key, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// sweep-wide and cluster-sweep

// sweepSubject is the swept design: the paper's quad of c1355 modules.
var sweepSubject = server.ItemSpec{Quad: &server.QuadSpec{Bench: "c1355", Seed: 1}, Mode: "full"}

// sweepScenarios is the scenario count of a sweep-wide and a cluster-sweep
// request: the same request standalone and distributed, so the two
// workloads differ only by the cluster. At 8 scenarios a sweep costs the
// daemon about 5.5 ms of CPU standalone and 8.5 ms as a cluster on the
// 2-vCPU reference host, so 60 req/s, which gives each open loop 1200
// samples for its p99, keeps the host a sixth to a quarter busy.
const sweepScenarios = 8

// sweepReplay names the replay metric of the in-process SweepAnalyze of
// one sweep-wide request, the engine part of its server time.
var sweepReplay = fmt.Sprintf("ssta.sweep_ms.quad-c1355-%d", sweepScenarios)

type sweepGen struct {
	rng       *rand.Rand
	seq       int
	scenarios int
	sse       float64 // share of requests that ask for an event stream
}

// factor draws one scenario knob: fresh values in [0.9, 1.1] make every
// request's scenario set distinct, so sweeps never coalesce.
func (g *sweepGen) factor() float64 {
	return math.Round((0.9+0.2*g.rng.Float64())*1e4) / 1e4
}

func (g *sweepGen) next() Request {
	g.seq++
	scens := make([]server.SweepScenarioSpec, g.scenarios)
	for i := range scens {
		sp := &scens[i].ScenarioSpec
		sp.Name = fmt.Sprintf("s%d", i)
		sp.Derate, sp.CellScale, sp.NetScale = g.factor(), g.factor(), g.factor()
		sp.GlobSigma, sp.LocSigma, sp.RandSigma = g.factor(), g.factor(), g.factor()
	}
	sse := g.sse > 0 && g.rng.Float64() < g.sse
	class := "sweep"
	if sse {
		class = "sweep-sse"
	}
	return Request{
		Seq: g.seq, Class: class, Method: http.MethodPost, Path: "/v1/sweep", Session: -1, SSE: sse,
		Body: mustJSON(server.SweepRequest{ItemSpec: sweepSubject, Scenarios: scens, TimeoutMS: sweepTimeoutMS}),
	}
}

func prepareSweep(_ context.Context, flow *ssta.Flow, st *state) error {
	d, _, err := quadDesign(flow, sweepSubject.Quad.Bench, sweepSubject.Quad.Seed)
	st.design = d
	return err
}

// warmSweep sends n sweeps (the last one streamed) so graph, model and
// prep caches are filled on every serving process.
func warmSweep(ctx context.Context, a *api, n int) error {
	g := &sweepGen{rng: rand.New(rand.NewSource(1)), scenarios: sweepScenarios}
	for i := 0; i < n; i++ {
		r := g.next()
		r.SSE = i == n-1
		data, err := a.do(ctx, &r)
		if err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		if _, err := sweepAnswer(&r, data); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	return nil
}

// sweepAnswer extracts the sweep response from a JSON body or, for an
// event stream, from its summary event after counting scenario events.
func sweepAnswer(r *Request, body []byte) (*server.SweepResponse, error) {
	var resp server.SweepResponse
	if !r.SSE {
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	events := 0
	var summary []byte
	for _, block := range bytes.Split(body, []byte("\n\n")) {
		name, data := "", []byte(nil)
		for _, line := range bytes.Split(block, []byte("\n")) {
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				name = string(line[len("event: "):])
			case bytes.HasPrefix(line, []byte("data: ")):
				data = line[len("data: "):]
			}
		}
		switch name {
		case "scenario":
			events++
		case "summary":
			summary = data
		case "error":
			return nil, fmt.Errorf("error event: %s", data)
		}
	}
	if summary == nil {
		return nil, errors.New("event stream without summary")
	}
	if err := json.Unmarshal(summary, &resp); err != nil {
		return nil, err
	}
	if events != resp.Scenarios {
		return nil, fmt.Errorf("%d scenario events for %d scenarios", events, resp.Scenarios)
	}
	return &resp, nil
}

// checkSweepShape checks every sweep inline for completeness; the numbers
// of a deterministic sample are re-derived after the phase.
func checkSweepShape(_ *state, r *Request, body []byte) error {
	resp, err := sweepAnswer(r, body)
	if err != nil {
		return err
	}
	var req server.SweepRequest
	if err := json.Unmarshal(r.Body, &req); err != nil {
		return err
	}
	if resp.Scenarios != len(req.Scenarios) || resp.Completed != resp.Scenarios {
		return fmt.Errorf("%d of %d scenarios completed", resp.Completed, len(req.Scenarios))
	}
	for i := range resp.Results {
		if e := resp.Results[i].Error; e != "" {
			return fmt.Errorf("scenario %s: %s", resp.Results[i].Name, e)
		}
		if !finite(resp.Results[i].MeanPS) || resp.Results[i].MeanPS <= 0 {
			return fmt.Errorf("scenario %s: mean %v", resp.Results[i].Name, resp.Results[i].MeanPS)
		}
	}
	return nil
}

// finalSweep re-runs every sampled sweep in-process, two at a time.
func finalSweep(ctx context.Context, _ *api, st *state, _ generator, sampled []outcome) (int, []failure) {
	var mu sync.Mutex
	var fails []failure
	var wg sync.WaitGroup
	work := make(chan *outcome)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				if err := oracleSweep(ctx, st, o); err != nil {
					mu.Lock()
					fails = append(fails, failure{kind: "sweep oracle mismatch", detail: fmt.Sprintf("sweep #%d: %v", o.req.Seq, err), wrong: true})
					mu.Unlock()
				}
			}
		}()
	}
	for i := range sampled {
		work <- &sampled[i]
	}
	close(work)
	wg.Wait()
	return 0, fails
}

func oracleSweep(ctx context.Context, st *state, o *outcome) error {
	var req server.SweepRequest
	if err := json.Unmarshal(o.req.Body, &req); err != nil {
		return err
	}
	resp, err := sweepAnswer(o.req, o.body)
	if err != nil {
		return err
	}
	return checkSweep(ctx, st.design, &req, resp)
}

// ---------------------------------------------------------------------------
// session-ecos

// Session layout: six flat sessions then two hierarchical ones.
var sessionSpecs = []server.ItemSpec{
	{Bench: "c7552", Seed: 1}, {Bench: "c7552", Seed: 2}, {Bench: "c7552", Seed: 3},
	{Bench: "c3540", Seed: 1}, {Bench: "c3540", Seed: 2}, {Bench: "c3540", Seed: 3},
	{Quad: &server.QuadSpec{Bench: "c1355", Seed: 1}}, {Quad: &server.QuadSpec{Bench: "c1355", Seed: 2}},
}

const (
	flatSessions = 6
	hierSessions = 2
	// maxOutstanding caps the un-undone edit batches per flat session.
	maxOutstanding = 8
)

// swapSeed is the seed of the c1355 module instance B of hier session h
// is swapped to: the other hier session's module.
func swapSeed(h int) int64 { return sessionSpecs[flatSessions+1-h].Quad.Seed }

// powerScales are the edit factors. Powers of two multiply exactly, so
// undoing every edit restores each delay bit for bit.
var powerScales = []float64{0.25, 0.5, 2, 4}

type sessionGen struct {
	rng         *rand.Rand
	seq         int
	edges       []int                 // edge count per flat session
	outstanding [][][]server.EditSpec // per flat session, batches not yet undone
	swapped     []bool                // per hier session, B holds the other module
}

func newSessionGen(seed int64, edges []int) *sessionGen {
	return &sessionGen{
		rng:         rand.New(rand.NewSource(seed)),
		edges:       edges,
		outstanding: make([][][]server.EditSpec, flatSessions),
		swapped:     make([]bool, hierSessions),
	}
}

func (g *sessionGen) next() Request {
	g.seq++
	switch u := g.rng.Float64(); {
	case u < 0.30:
		s := g.rng.Intn(flatSessions + hierSessions)
		return Request{Seq: g.seq, Class: "get", Method: http.MethodGet, Path: "/v1/sessions/{id}", Session: s}
	case u < 0.40:
		h := g.rng.Intn(hierSessions)
		seed := swapSeed(h)
		if g.swapped[h] {
			seed = sessionSpecs[flatSessions+h].Quad.Seed
		}
		g.swapped[h] = !g.swapped[h]
		return g.edit("swap", flatSessions+h, []server.EditSpec{{Op: "swap_module", Instance: "B", Bench: "c1355", Seed: seed}})
	}
	f := g.rng.Intn(flatSessions)
	if q := g.outstanding[f]; len(q) > 0 && (len(q) >= maxOutstanding || g.rng.Float64() < 0.5) {
		g.outstanding[f] = q[1:]
		return g.edit("edit", f, undo(q[0]))
	}
	batch := make([]server.EditSpec, 1+g.rng.Intn(4))
	for i := range batch {
		batch[i] = server.EditSpec{Op: "scale_delay", Edge: g.rng.Intn(g.edges[f]), Scale: powerScales[g.rng.Intn(len(powerScales))]}
	}
	g.outstanding[f] = append(g.outstanding[f], batch)
	return g.edit("edit", f, batch)
}

func (g *sessionGen) edit(class string, s int, edits []server.EditSpec) Request {
	return Request{
		Seq: g.seq, Class: class, Method: http.MethodPost, Path: "/v1/sessions/{id}/edits", Session: s,
		Body: mustJSON(server.SessionEditRequest{Edits: edits, TimeoutMS: shortTimeoutMS}),
	}
}

func undo(batch []server.EditSpec) []server.EditSpec {
	out := make([]server.EditSpec, len(batch))
	for i, e := range batch {
		e.Scale = 1 / e.Scale
		out[i] = e
	}
	return out
}

// restore returns the requests that undo every outstanding edit and put
// every swapped instance back, whatever order the edits were applied in.
func (g *sessionGen) restore() []Request {
	var out []Request
	for f, q := range g.outstanding {
		var all []server.EditSpec
		for _, b := range q {
			all = append(all, undo(b)...)
		}
		if len(all) > 0 {
			out = append(out, g.edit("edit", f, all))
		}
		g.outstanding[f] = nil
	}
	for h := 0; h < hierSessions; h++ {
		seed := sessionSpecs[flatSessions+h].Quad.Seed
		out = append(out, g.edit("swap", flatSessions+h, []server.EditSpec{{Op: "swap_module", Instance: "B", Bench: "c1355", Seed: seed}}))
		g.swapped[h] = false
	}
	return out
}

func prepareSessions(ctx context.Context, flow *ssta.Flow, st *state) error {
	means, err := sessionMeans(ctx, flow, sessionSpecs)
	st.sessMeans = means
	return err
}

// warmSessions creates the eight sessions, checks their creation means
// against the oracle, and swaps each hier session's instance B out and
// back so both modules' graphs and models are cached.
func warmSessions(ctx context.Context, a *api, st *state) error {
	st.sessIDs = make([]string, len(sessionSpecs))
	st.sessEdges = make([]int, len(sessionSpecs))
	st.sessCreated = make([]float64, len(sessionSpecs))
	for i, sp := range sessionSpecs {
		var v server.SessionView
		if err := a.post(ctx, "/v1/sessions", server.SessionCreateRequest{ItemSpec: sp, TimeoutMS: 60000}, &v); err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		tol := oracleTol
		if sp.Quad != nil {
			tol = hierTol
		}
		if !relClose(v.MeanPS, st.sessMeans[i], tol) {
			return fmt.Errorf("session %d created with mean %v, oracle %v", i, v.MeanPS, st.sessMeans[i])
		}
		st.sessIDs[i], st.sessEdges[i], st.sessCreated[i] = v.ID, v.Edges, v.MeanPS
	}
	for h := 0; h < hierSessions; h++ {
		id := st.sessIDs[flatSessions+h]
		for _, seed := range []int64{swapSeed(h), sessionSpecs[flatSessions+h].Quad.Seed} {
			body := server.SessionEditRequest{Edits: []server.EditSpec{{Op: "swap_module", Instance: "B", Bench: "c1355", Seed: seed}}, TimeoutMS: 60000}
			var resp server.SessionEditResponse
			if err := a.post(ctx, "/v1/sessions/"+id+"/edits", body, &resp); err != nil {
				return fmt.Errorf("warm-up swap: %w", err)
			}
		}
	}
	return nil
}

func checkSession(_ *state, r *Request, body []byte) error {
	if r.Method == http.MethodGet {
		var v server.SessionView
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if !finite(v.MeanPS) || v.MeanPS <= 0 {
			return fmt.Errorf("session mean %v", v.MeanPS)
		}
		return nil
	}
	var resp server.SessionEditResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	var req server.SessionEditRequest
	if err := json.Unmarshal(r.Body, &req); err != nil {
		return err
	}
	if resp.Applied != len(req.Edits) {
		return fmt.Errorf("%d of %d edits applied", resp.Applied, len(req.Edits))
	}
	if !finite(resp.MeanPS) || resp.MeanPS <= 0 {
		return fmt.Errorf("edited mean %v", resp.MeanPS)
	}
	return nil
}

// finalSessions undoes every outstanding edit and swap, then requires each
// session's mean to equal the mean the daemon reported at its creation.
func finalSessions(ctx context.Context, a *api, st *state, g generator, _ []outcome) (int, []failure) {
	sg := g.(*syncGen)
	sg.mu.Lock()
	restore := sg.g.(*sessionGen).restore()
	sg.mu.Unlock()
	attempted := 0
	var fails []failure
	for i := range restore {
		attempted++
		data, err := a.do(ctx, &restore[i])
		if err == nil {
			err = checkSession(st, &restore[i], data)
		}
		if err != nil {
			fails = append(fails, failure{kind: "session restore", detail: fmt.Sprintf("session %d: %v", restore[i].Session, err)})
		}
	}
	for i, id := range st.sessIDs {
		attempted++
		var v server.SessionView
		if err := a.get(ctx, "/v1/sessions/"+id, &v); err != nil {
			fails = append(fails, failure{kind: "session read", detail: fmt.Sprintf("session %d: %v", i, err)})
			continue
		}
		if !relClose(v.MeanPS, st.sessCreated[i], oracleTol) {
			fails = append(fails, failure{kind: "session mean after undo", detail: fmt.Sprintf("session %d (%s): mean %v, created with %v", i, id, v.MeanPS, st.sessCreated[i]), wrong: true})
		}
	}
	return attempted, fails
}

// ---------------------------------------------------------------------------

// api is the set-up and check path to the public API: plain requests
// outside any timed window.
type api struct {
	hc   *http.Client
	base string
	ids  []string
}

func (a *api) do(ctx context.Context, r *Request) ([]byte, error) {
	c := &loadClient{hc: a.hc, base: a.base, ids: a.ids, check: func(*Request, []byte) error { return nil }}
	o := c.send(ctx, r, time.Now(), true)
	if !o.ok {
		return nil, fmt.Errorf("%s: %s", o.fail.kind, o.fail.detail)
	}
	return o.body, nil
}

func (a *api) post(ctx context.Context, path string, body, out any) error {
	r := Request{Method: http.MethodPost, Path: path, Body: mustJSON(body), Session: -1}
	data, err := a.do(ctx, &r)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	return json.Unmarshal(data, out)
}

func (a *api) get(ctx context.Context, path string, out any) error {
	r := Request{Method: http.MethodGet, Path: path, Session: -1}
	data, err := a.do(ctx, &r)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if strings.TrimSpace(string(data)) == "" {
		return fmt.Errorf("GET %s: empty body", path)
	}
	return json.Unmarshal(data, out)
}
