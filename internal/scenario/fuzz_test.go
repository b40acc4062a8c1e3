package scenario_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/timing"
)

// FuzzScenarioJSON: any scenario list either fails to parse or to sweep,
// or sweeps a small flat graph and a small clocked one to a complete
// report whose statistics are finite and bit-identical, scenario by
// scenario, to TransformGraph + AnalyzeCtx.
func FuzzScenarioJSON(f *testing.F) {
	for _, seed := range []string{
		`[{"name":"unit"},{"name":"hot","derate":1.2,"glob_sigma":1.5,"edge_scales":{"3":1.1}}]`,
		`[{"cell_scale":1.07,"net_scale":0.9},{"loc_sigma":1.3,"rand_sigma":0.8}]`,
		`[{"derate":1000000,"cell_scale":1000000,"glob_sigma":1000000,"edge_scales":{"0":1000000}}]`,
		`[{"derate":5e-324,"rand_sigma":1e-300}]`,
		`[{"clock_period_ps":350,"clock_skew_ps":12,"clock_jitter_ps":7,"derate":1.1}]`,
		`[{"name":"big","derate":1e200}]`,
		`[{"name":"e","edge_scales":{"999999":2.0,"-5":3}}]`,
		`[{"derate":-1}]`,
		`[]`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	graphs := []*timing.Graph{testGraph(f, 21), clockedGraph(f, 22)}
	const q = 0.99865
	f.Fuzz(func(t *testing.T, data []byte) {
		scens, err := scenario.ParseJSON(data)
		if err != nil {
			return
		}
		if len(scens) > 8 {
			scens = scens[:8]
		}
		for _, g := range graphs {
			rep, err := scenario.SweepGraph(context.Background(), g, scens, scenario.Options{Workers: 1})
			if err != nil {
				return
			}
			if rep.Completed != len(scens) {
				t.Fatalf("%s: completed %d of %d scenarios", data, rep.Completed, len(scens))
			}
			for i := range scens {
				r := &rep.Results[i]
				stats := []float64{r.Mean, r.Std, r.Quantile}
				if r.SetupSlack != nil {
					stats = append(stats, r.SetupSlack.Mean, r.SetupSlack.Std, r.SetupSlack.Quantile,
						r.HoldSlack.Mean, r.HoldSlack.Std, r.HoldSlack.Quantile)
				}
				for _, x := range stats {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("%s: scenario %d has a non-finite statistic: %+v", data, i, r)
					}
				}
				sc := &scens[i]
				if d := sameResult(t, r, sc.TransformGraph(g), sc, q); d != "" {
					t.Fatalf("%s: scenario %d: %s differs from TransformGraph + AnalyzeCtx", data, i, d)
				}
			}
		}
	})
}
