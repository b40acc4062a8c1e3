package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/ssta"
)

// This file is the MCMM surface of the daemon: POST /v1/sweep evaluates
// many scenarios against one item with shared prep (one graph build or one
// design partition/PCA/stitch, then one propagation per scenario over a
// rescaled delay bank). The request holds one analysis slot for the whole
// sweep, like any other analysis; per-scenario failures — including a
// deadline firing mid-sweep — land in the per-scenario results, so the
// response always accounts for every scenario.

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
		gk := graphKey{bench: sw.Bench, seed: sw.Seed}
		g, plan, err := s.graphs.get(ctx, s.flow, gk)
		if err != nil {
			return sc, err
		}
		model, err := s.extractModel(ctx, gk, g)
		if err != nil {
			return sc, fmt.Errorf("scenario %q: extract %s: %w", spec.Name, sw.Bench, err)
		}
		mod, err := ssta.NewModule(sw.Bench, model, plan)
		if err != nil {
			return sc, err
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
		if s.batch != nil {
			if key, spec, call, batchable := s.sweepBatchCall(&req, specs); batchable {
				return s.batch.do(ctx, key, spec, call)
			}
		}
		return s.doSweep(ctx, &req, specs)
	})
}

// sweepFailure classifies a resolve/convert/run failure exactly like every
// other ctx path in the serving layer: a deadline/cancel is a timeout
// (408), everything else is validation (400) — and counts it.
func (s *Server) sweepFailure(err error, msg string) (int, []byte) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.metrics.itemsRejected.Add(1)
		return http.StatusRequestTimeout, errorBody(http.StatusRequestTimeout, msg)
	}
	s.metrics.badRequests.Add(1)
	return http.StatusBadRequest, errorBody(http.StatusBadRequest, msg)
}

// sweepPrep is a resolved, validated sweep ready to run: the shared
// front-door path, the streaming path and the micro-batcher all converge on
// run().
type sweepPrep struct {
	item    ssta.BatchItem
	name    string
	isQuad  bool
	mode    ssta.Mode
	scens   []ssta.Scenario
	workers int
	// spec and specs are the wire-level subject and scenarios, retained so
	// a clustered coordinator can dispatch shards without re-deriving them
	// (Server.runSweep); the local path ignores them.
	spec  ItemSpec
	specs []SweepScenarioSpec
	// progress marks a sweep whose caller consumes per-scenario results as
	// they land (SSE): a coordinator then has its workers stream them too.
	progress bool
}

func (p *sweepPrep) run(ctx context.Context, opt ssta.SweepOptions) (*ssta.SweepReport, error) {
	if p.isQuad {
		return ssta.SweepAnalyze(ctx, p.item.Design, p.mode, p.scens, opt)
	}
	return ssta.SweepAnalyzeGraph(ctx, p.item.Graph, p.scens, opt)
}

// prepSweep resolves the subject item and materializes every scenario. On
// failure the prep is nil and (status, body) carry the classified error.
func (s *Server) prepSweep(ctx context.Context, req *SweepRequest, specs []SweepScenarioSpec) (*sweepPrep, int, []byte) {
	item, name, isQuad, mode, err := s.resolveSweepItem(ctx, &req.ItemSpec)
	if err != nil {
		status, body := s.sweepFailure(err, err.Error())
		return nil, status, body
	}
	scens := make([]ssta.Scenario, len(specs))
	for i := range specs {
		sc, err := s.convertScenario(ctx, &specs[i], isQuad)
		if err != nil {
			status, body := s.sweepFailure(err, fmt.Sprintf("scenario %d: %v", i, err))
			return nil, status, body
		}
		scens[i] = sc
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	return &sweepPrep{
		item: item, name: name, isQuad: isQuad, mode: mode, scens: scens, workers: workers,
		spec: req.ItemSpec, specs: specs,
	}, 0, nil
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

	pr, status, body := s.prepSweep(ctx, req, specs)
	if pr == nil {
		return status, body
	}
	opt := ssta.SweepOptions{
		Workers:        pr.workers,
		TopK:           req.TopK,
		OnScenarioDone: s.scenarioMetricsHook(),
	}
	start := time.Now()
	rep, err := s.runSweep(ctx, pr, opt)
	if err != nil {
		// A deadline/cancel firing before the per-scenario fan-out (the
		// shared design stitch runs under ctx) is a timeout, not a bad
		// request; remaining sweep-level failures are validation (the
		// scenarios were already normalized above, so this is a bad
		// item/scenario combo).
		return s.sweepFailure(err, err.Error())
	}
	resp := sweepResponseView(pr.name, rep, float64(time.Since(start).Microseconds())/1000)
	return http.StatusOK, marshalJSON(resp)
}

// sweepResponseView flattens a sweep report into the wire response — the
// one assembly both the direct path and the micro-batcher's per-caller
// reassembly go through.
func sweepResponseView(name string, rep *ssta.SweepReport, elapsedMS float64) *SweepResponse {
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
		ElapsedMS: elapsedMS,
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

// resolveSweepItem maps the item spec onto the sweep's subject: a cached
// flat graph (bench/netlist/mult) or a cached quad design.
func (s *Server) resolveSweepItem(ctx context.Context, spec *ItemSpec) (ssta.BatchItem, string, bool, ssta.Mode, error) {
	set := spec.inputs()
	if len(set) != 1 {
		return ssta.BatchItem{}, "", false, 0, fmt.Errorf("sweep needs exactly one input of bench, netlist, mult or quad (got %s)",
			strings.Join(set, ", "))
	}
	mode, err := parseMode(spec.Mode)
	if err != nil {
		return ssta.BatchItem{}, "", false, 0, err
	}
	item, err := s.prepareItem(ctx, spec)
	if err != nil {
		return ssta.BatchItem{}, "", false, 0, err
	}
	if item.Circuit != nil {
		// Netlist items: build the graph here so the sweep sees a *Graph.
		g, _, err := s.flow.Graph(item.Circuit)
		if err != nil {
			return ssta.BatchItem{}, "", false, 0, err
		}
		item.Graph, item.Circuit = g, nil
	}
	return item, item.Name, item.Design != nil, mode, nil
}
