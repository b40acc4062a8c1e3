package server

import (
	"context"
	"fmt"
	"strings"

	"repro/ssta"
)

// AnalyzeRequest is the body of POST /v1/analyze and POST /v1/jobs: a batch
// of independent analyses plus scheduling knobs.
type AnalyzeRequest struct {
	// Items are the analyses to run; results come back in item order.
	Items []ItemSpec `json:"items"`
	// Workers bounds how many items run concurrently (<=0: server default).
	Workers int `json:"workers,omitempty"`
	// ItemWorkers bounds the goroutines inside one hierarchical analysis.
	ItemWorkers int `json:"item_workers,omitempty"`
	// TimeoutMS caps the wall-clock time of the whole batch. Zero selects
	// the server default; values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ItemSpec describes one analysis over the wire. Exactly one input —
// bench, netlist, mult or quad — must be set, mirroring ssta.BatchItem.
type ItemSpec struct {
	// Name labels the result; defaults to the input's own name.
	Name string `json:"name,omitempty"`

	// Bench generates a topology-matched ISCAS85-like benchmark.
	Bench string `json:"bench,omitempty"`
	// Seed is the generator seed for bench and quad items.
	Seed int64 `json:"seed,omitempty"`
	// Netlist is an inline ISCAS85 .bench netlist.
	Netlist string `json:"netlist,omitempty"`
	// Mult builds a structural n x n array multiplier.
	Mult int `json:"mult,omitempty"`
	// Quad builds and analyzes the paper's four-instance hierarchical
	// design around an extracted benchmark model.
	Quad *QuadSpec `json:"quad,omitempty"`

	// Mode selects the hierarchical correlation treatment for quad items:
	// "full" (default, the paper's proposed method) or "global".
	Mode string `json:"mode,omitempty"`
	// Extract additionally runs cached timing-model extraction on flat
	// items and reports the reduced model size.
	Extract bool `json:"extract,omitempty"`
	// Clocked wraps the item's circuit with input and capture register
	// stages (bench/mult/netlist items), so the analysis reports statistical
	// setup/hold slack alongside the delay. Netlists may also carry explicit
	// DFF lines without this flag. Not applicable to quad items.
	Clocked bool `json:"clocked,omitempty"`
}

// QuadSpec names the module of a hierarchical quad-design item: the module
// graph is generated from the benchmark spec, extracted (through the shared
// extraction cache) and instantiated four times as in paper Section VI-B.
type QuadSpec struct {
	Bench string `json:"bench"`
	Seed  int64  `json:"seed,omitempty"`
	// Gap separates the instances by this many grid pitches (0: abutted).
	Gap int `json:"gap,omitempty"`
}

// AnalyzeResponse is the body returned by /v1/analyze and stored for
// finished jobs.
type AnalyzeResponse struct {
	Results   []ItemResult `json:"results"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// ItemResult is the outcome of one item. Error is set when the item
// failed; the statistical fields are the delay distribution over all
// primary outputs.
type ItemResult struct {
	Name       string  `json:"name"`
	Error      string  `json:"error,omitempty"`
	MeanPS     float64 `json:"mean_ps,omitempty"`
	StdPS      float64 `json:"std_ps,omitempty"`
	P9987PS    float64 `json:"p9987_ps,omitempty"`
	Verts      int     `json:"verts,omitempty"`
	Edges      int     `json:"edges,omitempty"`
	ModelVerts int     `json:"model_verts,omitempty"`
	ModelEdges int     `json:"model_edges,omitempty"`
	// Setup/Hold summarize the worst statistical setup/hold slack when the
	// analyzed item is sequential (default clock); absent otherwise.
	Setup     *SlackView `json:"setup,omitempty"`
	Hold      *SlackView `json:"hold,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// SlackView is one worst-slack distribution on the wire: mean, std, and the
// low-tail (0.135%) quantile — the yield-side margin.
type SlackView struct {
	MeanPS float64 `json:"mean_ps"`
	StdPS  float64 `json:"std_ps"`
	QPS    float64 `json:"q_ps"`
}

// parseMode maps the wire mode names onto hier modes.
func parseMode(s string) (ssta.Mode, error) {
	switch strings.ToLower(s) {
	case "", "full", "proposed":
		return ssta.FullCorrelation, nil
	case "global", "globalonly", "global-only":
		return ssta.GlobalOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want \"full\" or \"global\")", s)
	}
}

// countInputs returns the populated input selectors of the spec.
func (s *ItemSpec) inputs() []string {
	var set []string
	if s.Bench != "" {
		set = append(set, "bench")
	}
	if s.Netlist != "" {
		set = append(set, "netlist")
	}
	if s.Mult > 0 {
		set = append(set, "mult")
	}
	if s.Quad != nil {
		set = append(set, "quad")
	}
	return set
}

// maxMult caps {"mult": N}. An N x N array multiplier has about 6N²
// vertices and its build is paid before any other bound applies: N=32
// builds 5952 vertices in about 50 ms, N=64 takes seconds, and larger N
// exhausts memory.
const maxMult = 32

// checkCost refuses an item whose graph build alone is unbounded. It runs
// before any cache is touched.
func (s *ItemSpec) checkCost() error {
	if s.Mult > maxMult {
		return fmt.Errorf("mult %d exceeds the limit of %d", s.Mult, maxMult)
	}
	return nil
}

// validate checks the spec's shape before any cache is touched: its build
// cost, exactly one input selector, and a known mode.
func (s *ItemSpec) validate() (ssta.Mode, error) {
	if err := s.checkCost(); err != nil {
		return 0, err
	}
	switch set := s.inputs(); len(set) {
	case 0:
		return 0, fmt.Errorf("item has no input: set one of bench, netlist, mult or quad")
	case 1:
	default:
		return 0, fmt.Errorf("item sets %d inputs (%s); exactly one of bench, netlist, mult or quad must be set",
			len(set), strings.Join(set, ", "))
	}
	return parseMode(s.Mode)
}

// resolveSweepItem maps the item spec onto the analysis subject: a flat
// graph (bench and mult graphs out of the server's bounded graph cache,
// netlists built per request) or a cached quad design. Holding graph
// identity stable across requests is also what makes the extraction cache
// hit on repeats (it is keyed by graph identity).
func (s *Server) resolveSweepItem(ctx context.Context, spec *ItemSpec) (*sweepPrep, error) {
	mode, err := spec.validate()
	if err != nil {
		return nil, err
	}
	pr := &sweepPrep{name: spec.Name, mode: mode}
	switch {
	case spec.Quad != nil:
		if spec.Clocked {
			return nil, fmt.Errorf("clocked applies to bench, netlist or mult items only")
		}
		if pr.design, err = s.quadDesign(ctx, spec.Quad); err != nil {
			return nil, err
		}
		// The upcoming analysis warms this design's per-mode prep; stamp it
		// so a restarted daemon can rebuild the warm prep before its first
		// sweep (satellite of the durable-state story).
		s.checkpointPrep(spec.Quad, mode)
		if pr.name == "" {
			pr.name = pr.design.Name
		}

	case spec.Netlist != "":
		c, err := ssta.ParseBench(spec.Name, strings.NewReader(spec.Netlist))
		if err != nil {
			return nil, fmt.Errorf("netlist: %w", err)
		}
		if spec.Clocked {
			if c, err = ssta.Clocked(c); err != nil {
				return nil, fmt.Errorf("netlist: %w", err)
			}
		}
		if pr.graph, _, err = s.flow.Graph(c); err != nil {
			return nil, err
		}
		if pr.name == "" {
			pr.name = c.Name
		}

	default: // bench or mult: served from the graph cache
		if pr.graph, err = s.cachedGraph(ctx, spec.graphKey()); err != nil {
			return nil, err
		}
		if pr.name == "" {
			if spec.Bench != "" {
				pr.name = spec.Bench
			} else {
				pr.name = fmt.Sprintf("mult%d", spec.Mult)
			}
		}
	}
	return pr, nil
}

// graphKey is the graph-cache identity of a bench or mult spec; a mult
// spec's seed does not change its graph and is left out. Other specs map
// to a key modelKey refuses, so their models never checkpoint.
func (s *ItemSpec) graphKey() graphKey {
	if s.Mult > 0 {
		return graphKey{mult: s.Mult, clocked: s.Clocked}
	}
	return graphKey{bench: s.Bench, seed: s.Seed, clocked: s.Clocked}
}

// slackViewOfStat flattens a sweep slack statistic (already quantiled at the
// sweep's low tail) for the wire.
func slackViewOfStat(st *ssta.SlackStat) *SlackView {
	if st == nil {
		return nil
	}
	return &SlackView{MeanPS: st.Mean, StdPS: st.Std, QPS: st.Quantile}
}

// graphKey identifies one server-built flat graph and keys the graph
// cache as is. A multiplier's key carries no bench or seed (see
// ItemSpec.graphKey), so one multiplier is one entry. Equal keys share one
// graph, which is also what lets the extraction cache, keyed on graph
// identity, recognize repeats.
type graphKey struct {
	bench   string
	seed    int64
	mult    int
	clocked bool
}

// builtGraph is one graph-cache value: a graph and its placement plan.
type builtGraph struct {
	g    *ssta.Graph
	plan *ssta.Plan
}

// graph returns the cached graph for the key, building it on a miss.
func (s *Server) graph(ctx context.Context, key graphKey) (builtGraph, error) {
	return s.graphs.Get(ctx, key, func() (builtGraph, error) {
		g, plan, err := buildGraph(s.flow, key)
		return builtGraph{g, plan}, err
	})
}

func buildGraph(flow *ssta.Flow, key graphKey) (*ssta.Graph, *ssta.Plan, error) {
	if key.mult > 0 {
		c, err := ssta.ArrayMultiplier(key.mult)
		if err != nil {
			return nil, nil, err
		}
		if key.clocked {
			if c, err = ssta.Clocked(c); err != nil {
				return nil, nil, err
			}
		}
		return flow.Graph(c)
	}
	if key.clocked {
		return flow.ClockedBenchGraph(key.bench, key.seed)
	}
	return flow.BenchGraph(key.bench, key.seed)
}

func (s *Server) cachedGraph(ctx context.Context, key graphKey) (*ssta.Graph, error) {
	b, err := s.graph(ctx, key)
	return b.g, err
}

type quadKey struct {
	graphKey
	gap int
}

// quadDesign builds (or reuses) the four-instance hierarchical design for
// the spec through the design cache, so its per-mode analysis prep
// survives across requests.
func (s *Server) quadDesign(ctx context.Context, q *QuadSpec) (*ssta.Design, error) {
	if q.Bench == "" {
		return nil, fmt.Errorf("quad: bench must be set")
	}
	if q.Gap < 0 {
		return nil, fmt.Errorf("quad: negative gap %d", q.Gap)
	}
	key := quadKey{graphKey{bench: q.Bench, seed: q.Seed}, q.Gap}
	return s.quads.Get(ctx, key, func() (*ssta.Design, error) {
		// The build completes even after ctx ends, so it waits on the
		// graph and extraction caches without ctx's cancellation.
		mod, err := s.benchModule(context.WithoutCancel(ctx), key.bench, key.seed)
		if err != nil {
			return nil, fmt.Errorf("quad: %w", err)
		}
		name := fmt.Sprintf("quad-%s-%d", key.bench, key.seed)
		if key.gap > 0 {
			name = fmt.Sprintf("%s-gap%d", name, key.gap)
		}
		return s.flow.QuadDesignGap(name, mod, key.gap)
	})
}

// benchModule resolves the extracted module of a generated bench: graph
// from the graph cache, model through the extraction cache. Quad designs,
// swap scenarios and swap_module edits all take their modules from here.
func (s *Server) benchModule(ctx context.Context, bench string, seed int64) (*ssta.Module, error) {
	gk := graphKey{bench: bench, seed: seed}
	b, err := s.graph(ctx, gk)
	if err != nil {
		return nil, err
	}
	model, err := s.extractModel(ctx, gk, b.g)
	if err != nil {
		return nil, fmt.Errorf("extract %s: %w", bench, err)
	}
	return ssta.NewModule(bench, model, b.plan)
}

// extractModel resolves the extracted timing model for a cached graph: the
// extract cache (which a coordinator's model push may have seeded) or a
// local extraction, checkpointed for the durable store.
func (s *Server) extractModel(ctx context.Context, gk graphKey, g *ssta.Graph) (*ssta.Model, error) {
	if m, ok := s.flow.Cache.Lookup(g, ssta.ExtractOptions{}); ok {
		return m, nil
	}
	m, err := s.flow.ExtractCtx(ctx, g, ssta.ExtractOptions{})
	if err != nil {
		return nil, err
	}
	s.checkpointModel(gk, m)
	return m, nil
}
