// Package ssta is the public facade of the hierarchical statistical static
// timing analysis library (reproduction of Li et al., "On Hierarchical
// Statistical Static Timing Analysis", DATE 2009).
//
// It bundles the default analysis flow — synthetic 90nm library, the
// paper's variation setup, grid-based spatial correlation with PCA — and
// re-exports the domain types. A typical session:
//
//	flow := ssta.DefaultFlow()
//	ckt := ssta.C17()
//	g, plan, err := flow.Graph(ckt)
//	delay, err := g.MaxDelay()             // statistical circuit delay
//	model, err := flow.Extract(g, ssta.ExtractOptions{})
//	mod, err := ssta.NewModule("ip", model, plan)
//
// See the examples directory for complete programs, including the paper's
// hierarchical four-multiplier experiment.
package ssta

import (
	"context"
	"fmt"
	"io"

	"repro/internal/canon"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/mc"
	"repro/internal/place"
	"repro/internal/timing"
	"repro/internal/variation"
)

// Re-exported domain types. The underlying packages carry the full
// documentation.
type (
	// Circuit is a combinational gate-level netlist.
	Circuit = circuit.Circuit
	// TopoSpec describes the structural footprint of a generated benchmark.
	TopoSpec = circuit.TopoSpec
	// Graph is a statistical timing graph.
	Graph = timing.Graph
	// Form is a canonical first-order delay expression.
	Form = canon.Form
	// Model is an extracted gray-box timing model.
	Model = core.Model
	// ExtractOptions controls model extraction.
	ExtractOptions = core.Options
	// ExtractCache memoizes model extraction (thread-safe, singleflight,
	// LRU-bounded).
	ExtractCache = core.ExtractCache
	// CacheMetrics is a snapshot of the extraction-cache counters.
	CacheMetrics = core.CacheMetrics
	// CriticalityResult is the all-pairs edge-criticality snapshot.
	CriticalityResult = core.CriticalityResult
	// CriticalityOptions tunes the criticality engine (workers, screen).
	CriticalityOptions = core.CriticalityOptions
	// CriticalityRefreshStats reports what an incremental criticality
	// refresh recomputed.
	CriticalityRefreshStats = core.CriticalityRefreshStats
	// Mode selects the hierarchical correlation treatment.
	Mode = hier.Mode
	// AnalyzeOptions tunes the hierarchical engine (workers, caching).
	AnalyzeOptions = hier.AnalyzeOptions
	// Module is a pre-characterized timing model with placement geometry.
	Module = hier.Module
	// Instance is a placed module occurrence.
	Instance = hier.Instance
	// Design is a hierarchical top-level design.
	Design = hier.Design
	// PortRef names an instance port.
	PortRef = hier.PortRef
	// Net is a point-to-point inter-module connection.
	Net = hier.Net
	// HierResult is the outcome of a hierarchical analysis.
	HierResult = hier.Result
	// MCConfig controls Monte Carlo runs.
	MCConfig = mc.Config
	// ClockSpec describes the clock of a sequential analysis (period, skew,
	// jitter; picoseconds).
	ClockSpec = timing.ClockSpec
	// SeqResult is the per-register statistical setup/hold analysis.
	SeqResult = timing.SeqResult
	// RegSlack is one register's setup/hold slack forms.
	RegSlack = timing.RegSlack
	// Register is the sequential metadata of a timing-graph register.
	Register = timing.Register
	// SegMatrix is the register-to-register path segmentation.
	SegMatrix = timing.SegMatrix
	// Plan is a placement with grid binning.
	Plan = place.Plan
	// Library is a standard-cell timing library.
	Library = cell.Library
	// Parameter is a process parameter with variation.
	Parameter = variation.Parameter
	// CorrelationModel is the distance-based grid correlation.
	CorrelationModel = variation.CorrelationModel
)

// Hierarchical analysis modes.
const (
	// FullCorrelation is the paper's proposed method (variable replacement).
	FullCorrelation = hier.FullCorrelation
	// GlobalOnly keeps only global-variation correlation between modules.
	GlobalOnly = hier.GlobalOnly
)

// Re-exported constructors.
var (
	// C17 returns the embedded ISCAS85 c17 netlist.
	C17 = circuit.C17
	// ParseBench reads an ISCAS85 .bench netlist.
	ParseBench = circuit.ParseBench
	// Generate builds a topology-matched pseudo-random benchmark.
	Generate = circuit.Generate
	// GenerateClocked builds a registered (clocked) variant of a generated
	// benchmark: every PI registered on entry, every PO captured by a DFF.
	GenerateClocked = circuit.GenerateClocked
	// Clocked wraps an existing combinational circuit with input and
	// capture registers.
	Clocked = circuit.Clocked
	// ParseBenchCombinational parses a .bench netlist, rejecting sequential
	// elements with an explicit error (the pre-register compatibility mode).
	ParseBenchCombinational = circuit.ParseBenchCombinational
	// DefaultClock is the clock assumed when a sequential analysis runs
	// without an explicit spec.
	DefaultClock = timing.DefaultClock
	// MinDelaySamples runs structural shortest-path Monte Carlo on a flat
	// graph — the sampling reference for Graph.MinDelay.
	MinDelaySamples = mc.MinDelaySamples
	// SequentialSamples draws Monte Carlo worst setup/hold slack samples.
	SequentialSamples = mc.SequentialSamples
	// ValidateSequential is the sequential Monte Carlo differential oracle.
	ValidateSequential = mc.ValidateSequential
	// SpecByName looks up one of the ten ISCAS85 structural specs.
	SpecByName = circuit.SpecByName
	// ISCAS85Specs lists the structural specs behind the paper's Table I.
	ISCAS85Specs = circuit.ISCAS85Specs
	// ArrayMultiplier builds a structural n x n multiplier (c6288 is 16x16).
	ArrayMultiplier = circuit.ArrayMultiplier
	// NewModule bundles an extracted model with its placement geometry.
	NewModule = hier.NewModule
	// MaxDelaySamples runs structural Monte Carlo on a flat graph.
	MaxDelaySamples = mc.MaxDelaySamples
	// AllPairsMCStats estimates Monte Carlo means/stds of all IO delays.
	AllPairsMCStats = mc.AllPairsStats
	// EdgeCriticalities runs the all-pairs criticality engine.
	EdgeCriticalities = core.EdgeCriticalities
	// EdgeCriticalitiesCtx is EdgeCriticalities with cancellation.
	EdgeCriticalitiesCtx = core.EdgeCriticalitiesCtx
	// EdgeCriticalitiesOpt exposes the criticality screen (see
	// CriticalityOptions).
	EdgeCriticalitiesOpt = core.EdgeCriticalitiesOpt
	// ReadModelJSON loads a serialized timing model.
	ReadModelJSON = core.ReadJSON
	// NewExtractCache returns an empty thread-safe extraction cache with
	// the default entry bound.
	NewExtractCache = core.NewExtractCache
	// NewExtractCacheSized returns an extraction cache with an explicit
	// entry cap and cost budget (0 disables the respective bound).
	NewExtractCacheSized = core.NewExtractCacheSized
	// PrepCacheStats reports process-wide per-mode analysis-prep cache
	// hits and misses across all hierarchical designs.
	PrepCacheStats = hier.PrepCacheStats
	// StitchCacheStats reports process-wide stitched-top-graph cache hits
	// and misses across all hierarchical designs.
	StitchCacheStats = hier.StitchCacheStats
)

// Flow bundles the analysis context: cell library, variation parameters and
// spatial-correlation setup, plus a shared extraction cache so each
// distinct module graph is extracted at most once per option set.
type Flow struct {
	Lib   *cell.Library
	Corr  *variation.CorrelationModel
	Pitch float64
	// Cache memoizes Extract results. DefaultFlow installs one; a nil
	// cache makes Extract run the pipeline unconditionally.
	Cache *core.ExtractCache
}

// DefaultFlow returns the paper's Section VI setup: synthetic 90nm library,
// sigma(Leff/Tox/Vth) = 15.7%/5.3%/4.4%, load sigma 15%, neighbor-grid
// correlation 0.92 decaying to the 0.42 global floor at grid distance 15,
// grids holding fewer than 100 cells.
func DefaultFlow() *Flow {
	corr, err := variation.DefaultCorrelation()
	if err != nil {
		// The default parameters are compile-time constants; failure here is
		// a programming error.
		panic(fmt.Sprintf("ssta: default correlation: %v", err))
	}
	return &Flow{
		Lib:   cell.Synthetic90nm(),
		Corr:  corr,
		Pitch: place.DefaultPitch,
		Cache: core.NewExtractCache(),
	}
}

// Graph places the circuit, builds the grid-based spatial model, and
// constructs the statistical timing graph.
func (f *Flow) Graph(c *Circuit) (*Graph, *Plan, error) {
	plan, err := place.Topological(c, f.Pitch)
	if err != nil {
		return nil, nil, err
	}
	gm, err := variation.NewGridModel(plan.NX, plan.NY, plan.Pitch, f.Corr)
	if err != nil {
		return nil, nil, err
	}
	g, err := timing.Build(c, f.Lib, plan, gm)
	if err != nil {
		return nil, nil, err
	}
	return g, plan, nil
}

// Extract runs timing-model extraction (paper Sections III-IV). When the
// flow carries a cache, repeated extraction of the same graph with the
// same options returns the memoized model; the result must be treated as
// immutable either way.
func (f *Flow) Extract(g *Graph, opt ExtractOptions) (*Model, error) {
	return f.ExtractCtx(context.Background(), g, opt)
}

// ExtractCtx is Extract with cancellable cache waiting: a caller coalesced
// onto another caller's in-flight extraction stops waiting when ctx fires.
func (f *Flow) ExtractCtx(ctx context.Context, g *Graph, opt ExtractOptions) (*Model, error) {
	if f.Cache != nil {
		return f.Cache.ExtractCtx(ctx, g, opt)
	}
	return core.ExtractCtx(ctx, g, opt)
}

// BenchGraph generates the named ISCAS85-like benchmark and its timing
// graph in one call.
func (f *Flow) BenchGraph(name string, seed int64) (*Graph, *Plan, error) {
	spec, ok := circuit.SpecByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("ssta: unknown benchmark %q", name)
	}
	c, err := circuit.Generate(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	return f.Graph(c)
}

// ClockedBenchGraph generates the registered (clocked) variant of the named
// benchmark — input and capture DFF stages wrapping the combinational core —
// and builds its timing graph.
func (f *Flow) ClockedBenchGraph(name string, seed int64) (*Graph, *Plan, error) {
	spec, ok := circuit.SpecByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("ssta: unknown benchmark %q", name)
	}
	c, err := circuit.GenerateClocked(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	return f.Graph(c)
}

// LoadBench parses a .bench netlist and builds its timing graph.
func (f *Flow) LoadBench(name string, r io.Reader) (*Graph, *Plan, error) {
	c, err := circuit.ParseBench(name, r)
	if err != nil {
		return nil, nil, err
	}
	return f.Graph(c)
}

// QuadDesign builds the paper's hierarchical experiment topology (Section
// VI-B): four instances of one module in two columns placed in abutment,
// with the first-column outputs cross-connected to the second-column inputs
// (A feeds D, B feeds C). Column-1 inputs become primary inputs, column-2
// outputs primary outputs.
func (f *Flow) QuadDesign(name string, mod *Module) (*Design, error) {
	return f.QuadDesignGap(name, mod, 0)
}

// QuadDesignGap is QuadDesign with the instances separated by gap grid
// pitches instead of abutted. The paper maximizes correlation by abutment;
// spreading the modules apart is the corresponding ablation — the
// uncovered area becomes filler grids and the inter-module correlation
// decays with distance.
func (f *Flow) QuadDesignGap(name string, mod *Module, gap int) (*Design, error) {
	if gap < 0 {
		return nil, fmt.Errorf("ssta: negative gap %d", gap)
	}
	w, h := mod.Width(), mod.Height()
	gp := float64(gap) * mod.Pitch
	d := &Design{
		Name: name, Width: 2*w + gp, Height: 2*h + gp, Pitch: mod.Pitch,
		Corr: f.Corr, Params: f.Lib.Params,
		Instances: []*Instance{
			{Name: "A", Module: mod, OriginX: 0, OriginY: 0},
			{Name: "B", Module: mod, OriginX: 0, OriginY: h + gp},
			{Name: "C", Module: mod, OriginX: w + gp, OriginY: 0},
			{Name: "D", Module: mod, OriginX: w + gp, OriginY: h + gp},
		},
	}
	ins := mod.Model.Graph.InputNames
	outs := mod.Model.Graph.OutputNames
	n := len(outs)
	if len(ins) < n {
		n = len(ins)
	}
	for k := 0; k < n; k++ {
		d.Nets = append(d.Nets,
			Net{From: PortRef{Instance: "A", Port: outs[k]}, To: PortRef{Instance: "D", Port: ins[k]}},
			Net{From: PortRef{Instance: "B", Port: outs[k]}, To: PortRef{Instance: "C", Port: ins[k]}},
		)
	}
	for _, in := range ins {
		d.PrimaryInputs = append(d.PrimaryInputs,
			PortRef{Instance: "A", Port: in}, PortRef{Instance: "B", Port: in})
	}
	if len(ins) > n {
		for _, in := range ins[n:] {
			d.PrimaryInputs = append(d.PrimaryInputs,
				PortRef{Instance: "C", Port: in}, PortRef{Instance: "D", Port: in})
		}
	}
	for _, out := range outs {
		d.PrimaryOutputs = append(d.PrimaryOutputs,
			PortRef{Instance: "C", Port: out}, PortRef{Instance: "D", Port: out})
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
