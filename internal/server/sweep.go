package server

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/scenario"
	"repro/ssta"
)

// This file is the MCMM surface of the daemon and the executor every
// analysis runs on: POST /v1/sweep evaluates many scenarios against one
// item with shared prep (one graph build or one design
// partition/PCA/stitch, then one propagation per scenario over a rescaled
// delay bank), and an analyze item is the same run with the identity
// scenario. The request holds one analysis slot for the whole sweep, like
// any other analysis; per-scenario failures — including a deadline firing
// mid-sweep — land in the per-scenario results, so the response always
// accounts for every scenario.

// SweepRequest is the body of POST /v1/sweep: one item (same vocabulary as
// /v1/analyze — exactly one of bench, netlist, mult, quad) plus the
// scenario list. An absent/empty scenario list selects the server's
// default scenario set (sstad -scenarios), if one is configured.
type SweepRequest struct {
	ItemSpec
	Scenarios []SweepScenarioSpec `json:"scenarios,omitempty"`
	// Workers bounds how many scenarios propagate concurrently (<=0:
	// server default).
	Workers int `json:"workers,omitempty"`
	// TopK bounds the divergence ranking (<=0: 3).
	TopK int `json:"top_k,omitempty"`
	// TimeoutMS caps the whole sweep. Zero: server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepScenarioSpec is one scenario over the wire: the rescale knobs of
// scenario.Spec plus module swaps, which only the serving layer can
// materialize (through the shared graph and extraction caches).
type SweepScenarioSpec struct {
	ssta.ScenarioSpec
	// Swaps maps instance names to replacement modules for quad items;
	// each module is generated and extracted through the shared caches.
	Swaps map[string]SwapSpec `json:"swaps,omitempty"`
}

// SwapSpec names a replacement module by benchmark identity.
type SwapSpec struct {
	Bench string `json:"bench"`
	Seed  int64  `json:"seed,omitempty"`
}

// SweepScenarioResult is one scenario outcome on the wire. Setup/Hold carry
// the worst statistical setup/hold slack under the scenario's clock when the
// swept subject is sequential; absent on combinational sweeps.
type SweepScenarioResult struct {
	Name  string `json:"name"`
	Error string `json:"error,omitempty"`
	// ErrorKind classifies Error when the scenario was cut short:
	// "canceled" (the request was canceled) or "deadline" (its deadline
	// fired). Empty for other failures.
	ErrorKind string     `json:"error_kind,omitempty"`
	MeanPS    float64    `json:"mean_ps,omitempty"`
	StdPS     float64    `json:"std_ps,omitempty"`
	P9987PS   float64    `json:"p9987_ps,omitempty"`
	Setup     *SlackView `json:"setup,omitempty"`
	Hold      *SlackView `json:"hold,omitempty"`
	Shared    bool       `json:"shared_prep"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// SweepEnvelopeView is the cross-scenario worst case on the wire.
type SweepEnvelopeView struct {
	MeanPS  float64 `json:"mean_ps"`
	StdPS   float64 `json:"std_ps"`
	P9987PS float64 `json:"p9987_ps"`
	Worst   string  `json:"worst"`
}

// DivergenceView is one divergence-ranking entry.
type DivergenceView struct {
	Name  string  `json:"name"`
	Score float64 `json:"score_ps"`
}

// SweepResponse is the body returned by /v1/sweep.
type SweepResponse struct {
	Name         string                `json:"name"`
	Results      []SweepScenarioResult `json:"results"`
	Envelope     SweepEnvelopeView     `json:"envelope"`
	TopDivergent []DivergenceView      `json:"top_divergent,omitempty"`
	// Scenarios and Completed are the sweep accounting: a deadline firing
	// mid-sweep yields Completed < Scenarios with the per-scenario errors
	// naming the cut.
	Scenarios int `json:"scenarios"`
	Completed int `json:"completed"`
	// Verts/Edges are the shared subject graph's size — scalar stats that
	// survive distributed execution, where the graph itself stays on the
	// workers (coordinator shards reassemble them from shard responses).
	Verts     int     `json:"verts,omitempty"`
	Edges     int     `json:"edges,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// convertScenario materializes one wire scenario, resolving swap modules
// through the shared graph and extraction caches.
func (s *Server) convertScenario(ctx context.Context, spec *SweepScenarioSpec, isQuad bool) (ssta.Scenario, error) {
	sc := spec.Scenario()
	if len(spec.Swaps) == 0 {
		return sc, nil
	}
	if !isQuad {
		return sc, fmt.Errorf("scenario %q: swaps apply to quad items only", spec.Name)
	}
	sc.Swaps = make(map[string]*ssta.Module, len(spec.Swaps))
	for inst, sw := range spec.Swaps {
		if sw.Bench == "" {
			return sc, fmt.Errorf("scenario %q: swap for instance %q needs a bench", spec.Name, inst)
		}
		mod, err := s.benchModule(ctx, sw.Bench, sw.Seed)
		if err != nil {
			return sc, fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
		sc.Swaps[inst] = mod
	}
	return sc, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := decodeJSONStrict(r, &req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	specs := req.Scenarios
	if len(specs) == 0 {
		specs = s.cfg.DefaultScenarios
	}
	if len(specs) == 0 {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "request has no scenarios and the server has no default scenario set")
		return
	}
	if len(specs) > s.cfg.MaxItems {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("request has %d scenarios, limit %d", len(specs), s.cfg.MaxItems))
		return
	}
	s.metrics.sweepRequests.Add(1)
	if wantsEventStream(r) {
		s.streamSweep(w, r, &req, specs)
		return
	}
	fp := requestFingerprint("sweep",
		&AnalyzeRequest{Items: []ItemSpec{req.ItemSpec}, Workers: req.Workers, TimeoutMS: req.TimeoutMS},
		specs, req.TopK)
	s.serveCoalesced(w, r, "sweep", fp, req.TimeoutMS, func(ctx context.Context) (int, []byte) {
		if key, err := batchKeyOf(&req.ItemSpec); s.batch != nil && err == nil {
			ans := s.batch.do(ctx, key, req.ItemSpec, &batchCall{
				name:    req.Name,
				specs:   specs,
				topK:    req.TopK,
				workers: req.Workers,
				timeout: s.effectiveTimeout(req.TimeoutMS),
			})
			return ans.status, ans.body
		}
		return s.doSweep(ctx, &req, specs)
	})
}

// sweepFailure classifies an executor failure exactly like every other ctx
// path in the serving layer: a deadline/cancel is a timeout (408),
// everything else is validation (400) — and counts it.
func (s *Server) sweepFailure(err error) (int, []byte) {
	if errorKind(err) != "" {
		s.metrics.itemsRejected.Add(1)
		return http.StatusRequestTimeout, errorBody(http.StatusRequestTimeout, err.Error())
	}
	s.metrics.badRequests.Add(1)
	return http.StatusBadRequest, errorBody(http.StatusBadRequest, err.Error())
}

// sweepPrep is a resolved, validated analysis ready to run: its subject
// (a flat graph or a quad design), the mode, and the materialized
// scenarios. The analysis keeps the wire-level subject and scenarios, so
// a clustered coordinator dispatches shards without re-deriving them
// (Server.runSweep).
type sweepPrep struct {
	*analysis
	name   string
	graph  *ssta.Graph
	design *ssta.Design
	mode   ssta.Mode
	scens  []ssta.Scenario
}

func (p *sweepPrep) run(ctx context.Context, opt ssta.SweepOptions) (*ssta.SweepReport, error) {
	if p.design != nil {
		return ssta.SweepAnalyze(ctx, p.design, p.mode, p.scens, opt)
	}
	return ssta.SweepAnalyzeGraph(ctx, p.graph, p.scens, opt)
}

// analysis is one unit of work for the executor: a subject, the scenarios
// to evaluate over it, and the knobs of the run.
type analysis struct {
	spec ItemSpec
	// specs are the scenarios; nil is the identity scenario, which is what
	// an analyze item is.
	specs []SweepScenarioSpec
	// extract additionally resolves the flat subject's extracted timing
	// model (cache lookup, extraction, checkpoint).
	extract bool
	// workers bounds the scenario fan-out, a shard's included (<=0:
	// server default); itemWorkers the goroutines of a hierarchical stitch.
	workers, itemWorkers int
	topK                 int
	// progress marks an analysis whose caller consumes per-scenario results
	// as they land (SSE): a coordinator then has its workers stream them.
	progress bool
	// ready, when set, runs once the subject and every scenario resolved,
	// right before the run starts (an SSE stream opens there).
	ready func()
	// onScenario, when set, sees each scenario result as it lands.
	onScenario func(i int, r *ssta.ScenarioResult)
}

// execution is a finished run of the executor.
type execution struct {
	name  string // the subject's display name
	rep   *ssta.SweepReport
	model *ssta.Model // set when the analysis asked to extract a flat subject
}

// identitySpec is the scenario list of an analyze item: the zero
// transform, evaluated over the subject's base delay bank.
var identitySpec = []SweepScenarioSpec{{}}

// execute is the one way the server runs an analysis: resolve the subject,
// materialize the scenarios, extract when asked, and run them through
// runSweep (locally or sharded across a cluster). The caller holds an
// admission slot. Per-scenario failures, a deadline firing mid-run
// included, land in the report; the error reports an analysis that could
// not run, or a panic, which must not take the process down.
func (s *Server) execute(ctx context.Context, a *analysis) (x *execution, err error) {
	defer func() {
		if r := recover(); r != nil {
			x, err = nil, fmt.Errorf("analysis panicked: %v", r)
		}
	}()
	pr, err := s.resolveSweepItem(ctx, &a.spec)
	if err != nil {
		return nil, err
	}
	if a.specs == nil {
		a.specs = identitySpec
	}
	if a.workers <= 0 {
		a.workers = s.cfg.Workers
	}
	pr.analysis = a
	pr.scens = make([]ssta.Scenario, len(pr.specs))
	for i := range pr.specs {
		if pr.scens[i], err = s.convertScenario(ctx, &pr.specs[i], pr.design != nil); err != nil {
			return nil, &scenario.ScenarioError{Index: i, Err: err}
		}
	}
	x = &execution{name: pr.name}
	if a.extract && pr.graph != nil {
		if x.model, err = s.extractModel(ctx, a.spec.graphKey(), pr.graph); err != nil {
			return nil, fmt.Errorf("extract: %w", err)
		}
	}
	if a.ready != nil {
		a.ready()
	}
	x.rep, err = s.runSweep(ctx, pr, ssta.SweepOptions{
		Workers:        a.workers,
		TopK:           a.topK,
		Analyze:        ssta.AnalyzeOptions{Workers: a.itemWorkers},
		OnScenarioDone: a.onScenario,
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// doSweep is the direct (unbatched) sweep execution: one admission slot
// covers the whole sweep — scenario materialization (swap extraction) and
// the propagation fan-out both count as analysis.
func (s *Server) doSweep(ctx context.Context, req *SweepRequest, specs []SweepScenarioSpec) (int, []byte) {
	if err := s.acquireSlotWait(ctx, 0); err != nil {
		s.metrics.rejected.Add(1)
		return http.StatusTooManyRequests, errorBody(http.StatusTooManyRequests, err.Error())
	}
	defer s.releaseSlot()
	x, err := s.execute(ctx, req.analysis(specs, s.scenarioMetricsHook()))
	if err != nil {
		return s.sweepFailure(err)
	}
	return jsonAnswer(http.StatusOK, sweepResponseView(x.name, x.rep))
}

// analysis maps a sweep request onto the executor's unit of work.
func (req *SweepRequest) analysis(specs []SweepScenarioSpec, onScenario func(int, *ssta.ScenarioResult)) *analysis {
	return &analysis{spec: req.ItemSpec, specs: specs, workers: req.Workers, topK: req.TopK, onScenario: onScenario}
}

// sweepResponseView flattens a sweep report into the wire response — the
// one assembly both the direct path and the micro-batcher's per-caller
// reassembly go through.
func sweepResponseView(name string, rep *ssta.SweepReport) *SweepResponse {
	resp := &SweepResponse{
		Name:      name,
		Results:   make([]SweepScenarioResult, len(rep.Results)),
		Scenarios: len(rep.Results),
		Completed: rep.Completed,
		Envelope: SweepEnvelopeView{
			MeanPS:  rep.Envelope.Mean,
			StdPS:   rep.Envelope.Std,
			P9987PS: rep.Envelope.Quantile,
			Worst:   rep.Envelope.Worst,
		},
		Verts:     rep.TopVerts,
		Edges:     rep.TopEdges,
		ElapsedMS: float64(rep.Elapsed.Microseconds()) / 1000,
	}
	for i := range rep.Results {
		resp.Results[i] = sweepScenarioView(&rep.Results[i])
	}
	for _, dv := range rep.TopDivergent {
		resp.TopDivergent = append(resp.TopDivergent, DivergenceView{Name: dv.Name, Score: dv.Score})
	}
	return resp
}

// sweepScenarioView flattens one scenario result for the wire.
func sweepScenarioView(res *ssta.ScenarioResult) SweepScenarioResult {
	out := SweepScenarioResult{
		Name:      res.Name,
		Shared:    res.Shared,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
		out.ErrorKind = errorKind(res.Err)
	} else {
		out.MeanPS, out.StdPS, out.P9987PS = res.Mean, res.Std, res.Quantile
		out.Setup = slackViewOfStat(res.SetupSlack)
		out.Hold = slackViewOfStat(res.HoldSlack)
	}
	return out
}
