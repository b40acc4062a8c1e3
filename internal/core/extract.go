package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/timing"
)

// DefaultDelta is the paper's criticality threshold (Section VI-A).
const DefaultDelta = 0.05

// Options controls timing-model extraction.
type Options struct {
	// Delta is the criticality threshold; edges with maximum criticality
	// below it are removed. Zero selects DefaultDelta. Negative disables
	// removal (merges only).
	Delta float64
	// Workers bounds the concurrency of the criticality engine
	// (<=0: GOMAXPROCS).
	Workers int
	// DisablePathProtection turns off the dominant-path guard. The paper's
	// bare algorithm can in principle disconnect an IO pair; the guard keeps
	// per-pair dominant paths regardless of their edge criticalities (see
	// DESIGN.md). Exposed for ablation.
	DisablePathProtection bool
	// MaxMergeIters bounds the merge fixpoint loop (0: unbounded).
	MaxMergeIters int
	// ExactCriticality disables the delta-threshold criticality screen and
	// evaluates every cutset boundary's forms (the Fig. 6 escape hatch:
	// sub-threshold Cm entries come out exact instead of as conservative
	// bounds). The kept/removed edge sets are identical either way.
	ExactCriticality bool
}

// Stats records the extraction outcome in the shape of the paper's Table I.
type Stats struct {
	EdgesOrig  int           // Eo
	VertsOrig  int           // Vo
	EdgesModel int           // Em
	VertsModel int           // Vm
	Duration   time.Duration // T

	// Cm holds the per-edge maximum criticalities of the original graph
	// (the data behind the paper's Fig. 6).
	Cm []float64
	// RemovedEdges counts edges dropped by the criticality filter (before
	// merges).
	RemovedEdges int
	// ProtectedKept counts edges below the threshold kept by the
	// dominant-path guard.
	ProtectedKept int
}

// PE returns the edge compression ratio Em/Eo.
func (s Stats) PE() float64 { return ratio(s.EdgesModel, s.EdgesOrig) }

// PV returns the vertex compression ratio Vm/Vo.
func (s Stats) PV() float64 { return ratio(s.VertsModel, s.VertsOrig) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Model is an extracted gray-box statistical timing model: a reduced timing
// graph with the same ports (and port names) as the original module and
// approximately the same statistical delay matrix. Source is the digest
// (timing.Graph.Digest) of the graph the model was extracted from, which
// lets a receiver check that a model belongs to the graph it is keyed
// under; models read from files that predate it carry none.
type Model struct {
	Graph  *timing.Graph
	Stats  Stats
	Source string
}

// Extract runs the full pipeline of the paper's Fig. 3 on a module timing
// graph.
func Extract(g *timing.Graph, opt Options) (*Model, error) {
	return ExtractCtx(context.Background(), g, opt)
}

// ExtractCtx is Extract with cooperative cancellation threaded through the
// criticality engine (the dominant cost).
func ExtractCtx(ctx context.Context, g *timing.Graph, opt Options) (*Model, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	if len(g.Inputs) == 0 || len(g.Outputs) == 0 {
		return nil, errors.New("core: graph has no ports")
	}
	delta := opt.Delta
	if delta == 0 {
		delta = DefaultDelta
	}
	start := time.Now()

	// Sequential modules are extracted through a widened-port view so the
	// criticality screen and the dominant-path guard protect clock->D paths
	// like IO paths; see sequential.go.
	orig := g
	extraOuts := 0
	if g.Sequential() {
		var err error
		g, extraOuts, err = seqView(g)
		if err != nil {
			return nil, fmt.Errorf("core: sequential view: %w", err)
		}
	}

	copt := CriticalityOptions{Workers: opt.Workers}
	if delta > 0 && !opt.ExactCriticality {
		// The removal decision only compares Cm against delta, so the
		// criticality screen can prune at exactly that threshold.
		copt.ScreenDelta = delta
	}
	crit, err := EdgeCriticalitiesOpt(ctx, g, copt)
	if err != nil {
		return nil, fmt.Errorf("core: criticality: %w", err)
	}

	remove := make([]bool, len(g.Edges))
	stats := Stats{
		EdgesOrig: len(g.Edges),
		VertsOrig: g.NumVerts,
		Cm:        crit.Cm,
	}
	if delta > 0 {
		for e := range g.Edges {
			if crit.Cm[e] >= delta {
				continue
			}
			if !opt.DisablePathProtection && crit.Protected[e] {
				stats.ProtectedKept++
				continue
			}
			remove[e] = true
			stats.RemovedEdges++
		}
	}

	mg := newModelGraph(g, remove)
	mg.reduce(opt.MaxMergeIters)

	reduced, err := rebuildGraph(g, mg)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild: %w", err)
	}
	if orig.Sequential() {
		if err := restoreSequential(orig, reduced, extraOuts); err != nil {
			return nil, err
		}
	}
	stats.VertsModel = reduced.NumVerts
	stats.EdgesModel = len(reduced.Edges)
	stats.Duration = time.Since(start)
	return &Model{Graph: reduced, Stats: stats, Source: orig.Digest()}, nil
}

// rebuildGraph compacts the mutable model graph back into an immutable
// timing.Graph, preserving port order and names and the variation context.
func rebuildGraph(orig *timing.Graph, mg *modelGraph) (*timing.Graph, error) {
	keep := make([]bool, mg.nVerts)
	for v := 0; v < mg.nVerts; v++ {
		if !mg.vAlive[v] {
			continue
		}
		if mg.isPort[v] || len(mg.inE[v]) > 0 || len(mg.outE[v]) > 0 {
			keep[v] = true
		}
	}
	newID := make([]int, mg.nVerts)
	for i := range newID {
		newID[i] = -1
	}
	n := 0
	for v := 0; v < mg.nVerts; v++ {
		if keep[v] {
			newID[v] = n
			n++
		}
	}
	out := timing.NewGraph(mg.space, n, orig.Params)
	out.Grids = orig.Grids
	for ei := range mg.edges {
		e := &mg.edges[ei]
		if !e.alive {
			continue
		}
		if newID[e.from] < 0 || newID[e.to] < 0 {
			return nil, fmt.Errorf("core: alive edge %d references dropped vertex", ei)
		}
		// Model edges are abstract (merged) delays: no single grid applies,
		// so the structural MC fields stay empty.
		if _, err := out.AddEdge(newID[e.from], newID[e.to], e.delay, nil, 0); err != nil {
			return nil, err
		}
	}
	ins := make([]int, len(orig.Inputs))
	for i, v := range orig.Inputs {
		if newID[v] < 0 {
			return nil, fmt.Errorf("core: input port %d dropped during reduction", i)
		}
		ins[i] = newID[v]
	}
	outs := make([]int, len(orig.Outputs))
	for j, v := range orig.Outputs {
		if newID[v] < 0 {
			return nil, fmt.Errorf("core: output port %d dropped during reduction", j)
		}
		outs[j] = newID[v]
	}
	if err := out.SetIO(ins, outs, orig.InputNames, orig.OutputNames); err != nil {
		return nil, err
	}
	if orig.OutputLoadSlopes != nil {
		out.OutputLoadSlopes = append([]float64(nil), orig.OutputLoadSlopes...)
	}
	out.RefSlew = orig.RefSlew
	if orig.InputSlewSlopes != nil {
		out.InputSlewSlopes = append([]float64(nil), orig.InputSlewSlopes...)
	}
	if orig.OutputPortSlews != nil {
		out.OutputPortSlews = append([]float64(nil), orig.OutputPortSlews...)
	}
	if orig.OutputSlewSlopes != nil {
		out.OutputSlewSlopes = append([]float64(nil), orig.OutputSlewSlopes...)
	}
	if _, err := out.Order(); err != nil {
		return nil, err
	}
	return out, nil
}
