package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/server"
	"repro/ssta"
)

// The oracle is an in-process reference that makes the same library calls
// the daemon makes for each request: BenchGraph/ClockedBenchGraph,
// AnalyzeBatch, Extract, QuadDesignGap, SweepAnalyze and the session
// constructors. Answers must agree to oracleTol relative.
const oracleTol = 1e-9

// hierTol is the agreement required of answers built on a module model the
// oracle extracted independently of the daemon. Model extraction is not
// reproducible run to run: its merges follow Go map iteration order, so
// two extractions of one graph list their edges in different orders and
// their delays agree only to about 5e-9 on the module, and on the quad
// design 2e-7 in the mean and 1.5e-6 in the standard deviation. Within one
// daemon the model is extracted once, so its own answers (a session before
// and after undoing its edits) still agree to oracleTol.
const hierTol = 1e-5

// delayQuantile and slackQuantile are the tail points the serving layer
// reports (99.865% delay, 0.135% slack).
const (
	delayQuantile = 0.99865
	slackQuantile = 1 - delayQuantile
)

// analyzeExpect is the expected answer of one single-item analyze.
type analyzeExpect struct {
	mean, std, p9987       float64
	verts, edges           int
	setup, hold            *server.SlackView
	modelVerts, modelEdges int
}

// analyzeKey names one analyze-mix subject.
func analyzeKey(bench string, seed int64, clocked, extract bool) string {
	k := fmt.Sprintf("%s/%d", bench, seed)
	if clocked {
		k += "/clk"
	}
	if extract {
		k += "/x"
	}
	return k
}

// benchGraph builds a generated benchmark's graph, clocked or not.
func benchGraph(flow *ssta.Flow, bench string, seed int64, clocked bool) (*ssta.Graph, *ssta.Plan, error) {
	if clocked {
		return flow.ClockedBenchGraph(bench, seed)
	}
	return flow.BenchGraph(bench, seed)
}

// analyzeOracle computes the expected answer of every subject analyze-mix
// can send.
func analyzeOracle(flow *ssta.Flow) (map[string]analyzeExpect, error) {
	out := map[string]analyzeExpect{}
	for _, b := range analyzeBenches {
		for seed := int64(1); seed <= benchSeeds; seed++ {
			for _, clocked := range []bool{false, true} {
				g, _, err := benchGraph(flow, b, seed, clocked)
				if err != nil {
					return nil, err
				}
				extract := !clocked && isExtractBench(b)
				res := flow.AnalyzeBatch([]ssta.BatchItem{{Graph: g, Extract: extract}}, ssta.BatchOptions{Workers: 1})[0]
				if res.Err != nil {
					return nil, fmt.Errorf("oracle %s: %w", analyzeKey(b, seed, clocked, false), res.Err)
				}
				e := analyzeExpect{
					mean: res.Delay.Mean(), std: res.Delay.Std(), p9987: res.Delay.Quantile(delayQuantile),
					verts: g.NumVerts, edges: len(g.Edges),
				}
				if res.Seq != nil {
					e.setup = slackView(res.Seq.WorstSetup)
					e.hold = slackView(res.Seq.WorstHold)
				}
				out[analyzeKey(b, seed, clocked, false)] = e
				if extract {
					e.modelVerts, e.modelEdges = res.Model.Graph.NumVerts, len(res.Model.Graph.Edges)
					out[analyzeKey(b, seed, false, true)] = e
				}
			}
		}
	}
	return out, nil
}

func slackView(f *ssta.Form) *server.SlackView {
	return &server.SlackView{MeanPS: f.Mean(), StdPS: f.Std(), QPS: f.Quantile(slackQuantile)}
}

// checkItem compares one analyze result with its expectation.
func checkItem(got *server.ItemResult, want analyzeExpect) error {
	if got.Error != "" {
		return fmt.Errorf("item error: %s", got.Error)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"mean_ps", got.MeanPS, want.mean}, {"std_ps", got.StdPS, want.std}, {"p9987_ps", got.P9987PS, want.p9987}} {
		if !relClose(c.got, c.want, oracleTol) {
			return fmt.Errorf("%s %v, oracle %v", c.name, c.got, c.want)
		}
	}
	if got.Verts != want.verts || got.Edges != want.edges {
		return fmt.Errorf("graph %d/%d, oracle %d/%d", got.Verts, got.Edges, want.verts, want.edges)
	}
	if got.ModelVerts != want.modelVerts || got.ModelEdges != want.modelEdges {
		return fmt.Errorf("model %d/%d, oracle %d/%d", got.ModelVerts, got.ModelEdges, want.modelVerts, want.modelEdges)
	}
	if err := checkSlack("setup", got.Setup, want.setup); err != nil {
		return err
	}
	return checkSlack("hold", got.Hold, want.hold)
}

func checkSlack(name string, got, want *server.SlackView) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("%s slack present=%v, oracle %v", name, got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if !relClose(got.MeanPS, want.MeanPS, oracleTol) || !relClose(got.StdPS, want.StdPS, oracleTol) || !relClose(got.QPS, want.QPS, oracleTol) {
		return fmt.Errorf("%s slack %+v, oracle %+v", name, *got, *want)
	}
	return nil
}

// quadDesign builds the paper's four-instance design around an extracted
// benchmark module exactly as the daemon's design cache does, returning
// the module too (sessions swap it).
func quadDesign(flow *ssta.Flow, bench string, seed int64) (*ssta.Design, *ssta.Module, error) {
	g, plan, err := flow.BenchGraph(bench, seed)
	if err != nil {
		return nil, nil, err
	}
	model, err := flow.Extract(g, ssta.ExtractOptions{})
	if err != nil {
		return nil, nil, err
	}
	mod, err := ssta.NewModule(bench, model, plan)
	if err != nil {
		return nil, nil, err
	}
	d, err := flow.QuadDesignGap(fmt.Sprintf("quad-%s-%d", bench, seed), mod, 0)
	return d, mod, err
}

// checkSweep re-runs a sweep request in-process and compares every
// scenario and the envelope with the served answer (to hierTol; the worst
// scenario's name is not compared, since two scenarios within hierTol of
// each other may swap places).
func checkSweep(ctx context.Context, d *ssta.Design, req *server.SweepRequest, got *server.SweepResponse) error {
	scens := make([]ssta.Scenario, len(req.Scenarios))
	for i := range req.Scenarios {
		scens[i] = req.Scenarios[i].Scenario()
	}
	rep, err := ssta.SweepAnalyze(ctx, d, ssta.FullCorrelation, scens, ssta.SweepOptions{Workers: 1})
	if err != nil {
		return fmt.Errorf("oracle sweep: %w", err)
	}
	if len(got.Results) != len(rep.Results) || got.Completed != rep.Completed {
		return fmt.Errorf("%d results (%d completed), oracle %d (%d)", len(got.Results), got.Completed, len(rep.Results), rep.Completed)
	}
	for i := range rep.Results {
		w, g := &rep.Results[i], &got.Results[i]
		if g.Name != w.Name || g.Error != "" {
			return fmt.Errorf("scenario %d: %q error %q, oracle %q", i, g.Name, g.Error, w.Name)
		}
		if !relClose(g.MeanPS, w.Mean, hierTol) || !relClose(g.StdPS, w.Std, hierTol) || !relClose(g.P9987PS, w.Quantile, hierTol) {
			return fmt.Errorf("scenario %s: %v/%v/%v, oracle %v/%v/%v", w.Name, g.MeanPS, g.StdPS, g.P9987PS, w.Mean, w.Std, w.Quantile)
		}
	}
	env := got.Envelope
	if !relClose(env.MeanPS, rep.Envelope.Mean, hierTol) || !relClose(env.P9987PS, rep.Envelope.Quantile, hierTol) {
		return fmt.Errorf("envelope %+v, oracle %+v", env, rep.Envelope)
	}
	return nil
}

// sessionMeans computes the creation-time delay mean of every session the
// session-ecos workload creates, through the library's session
// constructors.
func sessionMeans(ctx context.Context, flow *ssta.Flow, specs []server.ItemSpec) ([]float64, error) {
	out := make([]float64, len(specs))
	for i, sp := range specs {
		var s *ssta.Session
		if sp.Quad != nil {
			d, _, err := quadDesign(flow, sp.Quad.Bench, sp.Quad.Seed)
			if err != nil {
				return nil, err
			}
			if s, err = flow.NewDesignSession(ctx, d, ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1}); err != nil {
				return nil, err
			}
		} else {
			g, _, err := flow.BenchGraph(sp.Bench, sp.Seed)
			if err != nil {
				return nil, err
			}
			if s, err = flow.NewGraphSession(ctx, g); err != nil {
				return nil, err
			}
		}
		out[i] = s.Delay().Mean()
	}
	return out, nil
}

// finite reports whether x is an ordinary number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
