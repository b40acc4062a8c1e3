package hier

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/canon"
	"repro/internal/mat"
	"repro/internal/timing"
	"repro/internal/variation"
)

// Mode selects how inter-module correlation is handled at design level.
type Mode int

const (
	// FullCorrelation is the paper's proposed method: heterogeneous
	// design-level grids, PCA, and independent-variable replacement.
	FullCorrelation Mode = iota
	// GlobalOnly is the paper's baseline ("only correlation from global
	// variation"): module-local components stay private per instance, so
	// instances correlate only through the shared global variables.
	GlobalOnly
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case FullCorrelation:
		return "proposed (local+global correlation)"
	case GlobalOnly:
		return "global-variation correlation only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Partition is the heterogeneous design-level grid partition (paper Fig. 4).
type Partition struct {
	Centers   [][2]float64 // grid centers: instance grids first, filler last
	InstStart []int        // offset of each instance's grid block in Centers
	Filler    int          // number of filler grids
	Grids     *variation.GridModel
}

// partition builds the design-level grids: each instance contributes its
// module grids at its placed origin, and the uncovered die area is filled
// with default-pitch grids whose centers do not fall inside any instance.
func (d *Design) partition() (*Partition, error) {
	p := &Partition{InstStart: make([]int, len(d.Instances))}
	for i, inst := range d.Instances {
		p.InstStart[i] = len(p.Centers)
		m := inst.Module
		for gy := 0; gy < m.NY; gy++ {
			for gx := 0; gx < m.NX; gx++ {
				p.Centers = append(p.Centers, [2]float64{
					inst.OriginX + (float64(gx)+0.5)*m.Pitch,
					inst.OriginY + (float64(gy)+0.5)*m.Pitch,
				})
			}
		}
	}
	nx := int(d.Width/d.Pitch + 0.5)
	ny := int(d.Height/d.Pitch + 0.5)
	for gy := 0; gy < ny; gy++ {
		for gx := 0; gx < nx; gx++ {
			c := [2]float64{(float64(gx) + 0.5) * d.Pitch, (float64(gy) + 0.5) * d.Pitch}
			if d.covered(c) {
				continue
			}
			p.Centers = append(p.Centers, c)
			p.Filler++
		}
	}
	gm, err := variation.NewGridModelFromCenters(d.Pitch, d.Corr, p.Centers)
	if err != nil {
		return nil, fmt.Errorf("hier: design-level PCA: %w", err)
	}
	p.Grids = gm
	return p, nil
}

func (d *Design) covered(c [2]float64) bool {
	for _, inst := range d.Instances {
		if c[0] >= inst.OriginX && c[0] < inst.OriginX+inst.Module.Width() &&
			c[1] >= inst.OriginY && c[1] < inst.OriginY+inst.Module.Height() {
			return true
		}
	}
	return false
}

// Result of a hierarchical analysis.
type Result struct {
	Mode      Mode
	Space     canon.Space
	Partition *Partition // nil in GlobalOnly mode
	// Graph is the stitched top graph. Analyze and Stitch share it through
	// the design's stitch cache: treat it as read-only.
	Graph *timing.Graph
	// Delay is the statistical maximum delay over all primary outputs with
	// all primary inputs arriving at time zero.
	Delay *canon.Form
	// OutputArrivals holds the arrival form per primary output (nil when
	// unreachable).
	OutputArrivals []*canon.Form
	// Sequential holds the design-level setup/hold analysis when the
	// stitched graph carries registers (nil for combinational designs).
	// Hold slacks computed over reduced models are optimistic bounds; see
	// core/sequential.go.
	Sequential *timing.SeqResult
	Elapsed    time.Duration
}

// AnalyzeOptions tunes the analysis engine without changing its result:
// parallel and cached runs are numerically identical to the serial path.
type AnalyzeOptions struct {
	// Workers bounds the goroutines used for replacement matrices,
	// boundary-condition assembly and instance-edge rewriting.
	// <=0 selects GOMAXPROCS; 1 runs strictly serially.
	Workers int
	// DisableCache recomputes the partition/PCA/replacement prep and the
	// stitched top graph instead of reusing the design's cached ones, and
	// leaves the caches untouched. Exposed for benchmarking and for callers
	// that mutate state the design fingerprints cannot see.
	DisableCache bool
	// Clock drives the design-level setup/hold analysis on sequential
	// designs; the zero value selects timing.DefaultClock. Ignored for
	// combinational designs.
	Clock timing.ClockSpec
}

// Analyze runs the hierarchical timing analysis of paper Fig. 5 serially
// (with prep caching). Use AnalyzeOpt to run on a worker pool.
func (d *Design) Analyze(mode Mode) (*Result, error) {
	return d.AnalyzeOpt(mode, AnalyzeOptions{Workers: 1})
}

// AnalyzeOpt is Analyze with explicit engine options.
func (d *Design) AnalyzeOpt(mode Mode, opt AnalyzeOptions) (*Result, error) {
	return d.AnalyzeCtx(context.Background(), mode, opt)
}

// AnalyzeCtx is AnalyzeOpt with cooperative cancellation: the stitching
// pool, the prep computation and the design-level forward pass all observe
// ctx, so a long-running analysis driven by a served request stops promptly
// once the request is cancelled or times out.
func (d *Design) AnalyzeCtx(ctx context.Context, mode Mode, opt AnalyzeOptions) (*Result, error) {
	start := time.Now()
	res, err := d.buildTop(ctx, mode, false, opt)
	if err != nil {
		return nil, err
	}
	// The design-level passes run in flat propagation arenas; only the
	// per-output forms surfaced in the result are materialized. Launch
	// sources include the instance clock roots on sequential designs, so
	// register-launched cones reach the primary outputs.
	res.OutputArrivals = make([]*canon.Form, len(res.Graph.Outputs))
	res.Delay, res.Sequential, err = res.Graph.AnalyzeCtx(ctx, nil, opt.Clock, res.OutputArrivals)
	if err != nil {
		return nil, fmt.Errorf("hier: %w", err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Stitch returns the design's stitched top-level timing graph without
// running any propagation. It is the shared-prep entry point of the MCMM
// sweep engine: one stitch, then one propagation per scenario that
// rescales the shared delay bank as it reads it. The graph comes from the
// design's stitch cache, which Analyze shares; it is rebuilt (prep through
// the prep cache, per-instance rewriting over opt.Workers) only when the
// design geometry, nets, IO, module graphs' edge counts or boundary
// characterization changed since the cached stitch, or under
// opt.DisableCache. In-place edits to a module graph's Edge.Delay forms
// are invisible to that check and require InvalidatePrep.
//
// Every call returns a fresh Result carrying the graph, space and
// partition (Delay/OutputArrivals nil), but the graph itself is shared
// between calls and with concurrent analyses: treat it as read-only, and
// Clone it before editing. The design is validated first, unless the same
// fingerprints show it unchanged since it last passed.
func (d *Design) Stitch(ctx context.Context, mode Mode, opt AnalyzeOptions) (*Result, error) {
	return d.buildTop(ctx, mode, false, opt)
}

// Flatten builds the ground-truth flat timing graph of the design: every
// instance's ORIGINAL timing graph embedded in the design-level space with
// grid indices mapped into the heterogeneous partition. All modules must
// carry their original graphs. The result supports both analytic
// propagation and structural Monte Carlo.
func (d *Design) Flatten() (*timing.Graph, *Partition, error) {
	return d.FlattenOpt(AnalyzeOptions{Workers: 1})
}

// FlattenOpt is Flatten with explicit engine options.
func (d *Design) FlattenOpt(opt AnalyzeOptions) (*timing.Graph, *Partition, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	for _, inst := range d.Instances {
		if inst.Module.Orig == nil {
			return nil, nil, fmt.Errorf("hier: instance %q module has no original graph; cannot flatten", inst.Name)
		}
	}
	res, err := d.buildTop(context.Background(), FullCorrelation, true, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Partition, nil
}

// preppedEdge is one instance edge rewritten into the design space,
// produced on the worker pool and committed to the top graph serially so
// edge order (and therefore every downstream result) is deterministic.
type preppedEdge struct {
	from, to int
	f        *canon.Form
	lsens    []float64
	grid     int
}

// instRewrite is one instance rewritten into the design space: every edge,
// unscaled (commit applies the boundary scale), and every register's setup
// and hold constraint. It depends on the prep and the instance graph only,
// so a session keeps it across commits and re-derives it per swapped
// instance.
type instRewrite struct {
	edges       []preppedEdge
	setup, hold []*canon.Form
}

// rewriteEdgeRaw maps one instance edge into the design space without any
// boundary scale. The returned edge may be cached and shared; scaleEdge
// never mutates it.
func rewriteEdgeRaw(e *timing.Edge, i int, pp *prep, nP int, mgmComps int, useOrig bool) (preppedEdge, error) {
	f, err := rewriteForm(e.Delay, i, pp, nP, mgmComps)
	if err != nil {
		return preppedEdge{}, err
	}
	pe := preppedEdge{from: e.From, to: e.To, f: f}
	if useOrig && pp.part != nil {
		pe.lsens = e.LSens
		pe.grid = pp.part.InstStart[i] + e.Grid
	}
	return pe, nil
}

// rewriteForm maps one module-space canonical form (an edge delay or a
// register constraint) into the design space under the mode's variable
// replacement.
func rewriteForm(src *canon.Form, i int, pp *prep, nP int, mgmComps int) (*canon.Form, error) {
	f := pp.space.NewForm()
	f.Nominal = src.Nominal
	copy(f.Glob, src.Glob)
	f.Rand = src.Rand
	switch pp.mode {
	case FullCorrelation:
		// x = A^+ B_n x_t (eq. 19): coefficient vector per
		// parameter block maps through R^T.
		for p := 0; p < nP; p++ {
			s := src.Loc[p*mgmComps : (p+1)*mgmComps]
			dst, err := pp.repl[i].MulVecT(s)
			if err != nil {
				return nil, err
			}
			copy(f.Loc[p*pp.part.Grids.Comps:(p+1)*pp.part.Grids.Comps], dst)
		}
	case GlobalOnly:
		copy(f.Loc[pp.instLocStart[i]:pp.instLocStart[i+1]], src.Loc)
	}
	return f, nil
}

// boundaryScale returns the load/slew adjustment factor for an edge given
// the instance's boundary-extra maps.
func boundaryScale(e *timing.Edge, extraTo, extraFrom map[int]float64) float64 {
	if ex := extraTo[e.To] + extraFrom[e.From]; ex != 0 && e.Delay.Nominal > 0 {
		s := (e.Delay.Nominal + ex) / e.Delay.Nominal
		if s < 0.1 {
			s = 0.1 // sharp external transitions cannot erase the arc
		}
		return s
	}
	return 1
}

// scaleEdge returns a scaled copy of a raw prepped edge, leaving the input
// (a potential cache entry) untouched.
func scaleEdge(pe preppedEdge, scale float64) preppedEdge {
	out := preppedEdge{from: pe.from, to: pe.to, f: pe.f.Scale(scale), grid: pe.grid}
	if pe.lsens != nil {
		out.lsens = make([]float64, len(pe.lsens))
		for k, v := range pe.lsens {
			out.lsens[k] = v * scale
		}
	}
	return out
}

// rewriteChunkSize is the number of edges one pool task rewrites; small
// enough to balance unequal instances, large enough to amortize dispatch.
const rewriteChunkSize = 128

// buildTop stitches the instance graphs (models, or originals when useOrig)
// into one top-level graph in the design space. The geometry prep comes
// from the design's prep cache and a model-graph top from its stitch
// cache; on a miss every instance is rewritten on opt.Workers goroutines
// and committed.
func (d *Design) buildTop(ctx context.Context, mode Mode, useOrig bool, opt AnalyzeOptions) (*Result, error) {
	fp, sfp, err := d.validate(opt)
	if err != nil {
		return nil, err
	}
	pp, err := d.getPrep(ctx, mode, opt, fp)
	if err != nil {
		return nil, err
	}
	space, part := pp.space, pp.part

	// The model-graph stitch depends on the design alone, never on the
	// scenario: reuse the cached top when neither the prep nor the stitch
	// fingerprint moved. Each caller gets a fresh Result around the shared,
	// read-only graph.
	cache := !useOrig && !opt.DisableCache
	if cache {
		if top := d.cachedTop(mode, pp, sfp); top != nil {
			stitchHits.Add(1)
			return &Result{Mode: mode, Space: space, Partition: part, Graph: top}, nil
		}
		stitchMisses.Add(1)
	}
	rw := make([]instRewrite, len(d.Instances))
	if err := d.rewriteInstances(ctx, pp, useOrig, opt.Workers, nil, rw); err != nil {
		return nil, err
	}
	top, err := d.commit(ctx, pp, useOrig, opt.Workers, rw)
	if err != nil {
		return nil, err
	}
	if cache {
		d.storeTop(mode, pp, sfp, top)
	}
	return &Result{Mode: mode, Space: space, Partition: part, Graph: top}, nil
}

// rewriteInstances rewrites the listed instances (all of them when insts
// is nil) into the design space under pp, writing instance i's rewrite to
// out[i]. Work is split into per-instance chunks of edges and registers on
// the worker pool; each task writes only its own slots.
func (d *Design) rewriteInstances(ctx context.Context, pp *prep, useOrig bool, workers int, insts []int, out []instRewrite) error {
	// first[i] is the index of instance i's first chunk.
	first := make([]int, len(d.Instances)+1)
	for i, inst := range d.Instances {
		first[i+1] = first[i]
		if insts != nil && !slices.Contains(insts, i) {
			continue
		}
		ig := d.instGraph(inst, useOrig)
		nE, nR := len(ig.Edges), len(ig.Registers)
		out[i] = instRewrite{
			edges: make([]preppedEdge, nE),
			setup: make([]*canon.Form, nR),
			hold:  make([]*canon.Form, nR),
		}
		first[i+1] += (nE + nR + rewriteChunkSize - 1) / rewriteChunkSize
	}
	nP := len(d.Params)
	return timing.ParallelForCtx(ctx, first[len(d.Instances)], workers, func(_ context.Context, c int) error {
		i := sort.Search(len(d.Instances), func(j int) bool { return first[j+1] > c })
		ig := d.instGraph(d.Instances[i], useOrig)
		mgmComps := d.Instances[i].Module.gridModel().Comps
		rw := &out[i]
		nE := len(ig.Edges)
		lo := (c - first[i]) * rewriteChunkSize
		for k := lo; k < min(lo+rewriteChunkSize, nE+len(ig.Registers)); k++ {
			var err error
			if k < nE {
				rw.edges[k], err = rewriteEdgeRaw(&ig.Edges[k], i, pp, nP, mgmComps, useOrig)
			} else {
				r := &ig.Registers[k-nE]
				if rw.setup[k-nE], err = rewriteForm(r.Setup, i, pp, nP, mgmComps); err == nil {
					rw.hold[k-nE], err = rewriteForm(r.Hold, i, pp, nP, mgmComps)
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// commit stitches rewritten instances into a fresh top-level graph: the
// boundary-scaled instance edges in instance order, then the registers and
// clock roots, then one edge per design net (net j is edge
// len(instance edges)+j), then the primary IO. It is the one place a top
// graph is assembled; the rewrites in rw are shared, never mutated.
func (d *Design) commit(ctx context.Context, pp *prep, useOrig bool, workers int, rw []instRewrite) (*timing.Graph, error) {
	// Instance name index and per-graph port maps: O(1) lookups during
	// stitching instead of per-net linear scans over ports.
	instIdx := make(map[string]int, len(d.Instances))
	for i, inst := range d.Instances {
		instIdx[inst.Name] = i
	}
	ports := d.portIndexes(useOrig)

	// Count vertices and assign per-instance bases.
	base := make([]int, len(d.Instances))
	total := 0
	for i, inst := range d.Instances {
		base[i] = total
		total += d.instGraph(inst, useOrig).NumVerts
	}
	top := timing.NewGraph(pp.space, total, d.Params)
	if pp.part != nil {
		top.Grids = pp.part.Grids
	}

	// Load- and slew-aware model use (paper future work): output ports
	// driving more than one net see extra load beyond characterization, and
	// input ports driven by slower-than-reference transitions see extra
	// delay on their fanout edges. Both adjustments scale the affected
	// edges so relative sensitivities are preserved; scaling after the
	// rewrite is exact because every component scales elementwise.
	extraTo, extraFrom, err := d.boundaryExtras(ctx, useOrig, instIdx, ports, workers)
	if err != nil {
		return nil, err
	}
	for i, inst := range d.Instances {
		ig := d.instGraph(inst, useOrig)
		for k, pe := range rw[i].edges {
			if scale := boundaryScale(&ig.Edges[k], extraTo[i], extraFrom[i]); scale != 1 {
				pe = scaleEdge(pe, scale)
			}
			if _, err := top.AddEdge(base[i]+pe.from, base[i]+pe.to, pe.f, pe.lsens, pe.grid); err != nil {
				return nil, err
			}
		}
	}

	// Sequential metadata: instance registers and clock roots merge into the
	// top with vertex ids offset by the instance base, names prefixed by the
	// instance, and constraint forms rewritten into the design space exactly
	// like edge delays.
	nextEdge := 0
	for i, inst := range d.Instances {
		edgeBase := nextEdge // top index of instance i's first edge
		nextEdge += len(rw[i].edges)
		ig := d.instGraph(inst, useOrig)
		if !ig.Sequential() {
			continue
		}
		for k, r := range ig.Registers {
			q, clkEdge := -1, -1
			if r.Q >= 0 {
				q = base[i] + r.Q
			}
			if r.ClkEdge >= 0 {
				clkEdge = edgeBase + r.ClkEdge
			}
			grid := -1
			var sl, hl []float64
			if useOrig && pp.part != nil && r.Grid >= 0 {
				grid = pp.part.InstStart[i] + r.Grid
				sl, hl = r.SetupLSens, r.HoldLSens
			}
			top.Registers = append(top.Registers, timing.Register{
				Name: inst.Name + "." + r.Name, Q: q, D: base[i] + r.D, ClkEdge: clkEdge, Grid: grid,
				Setup: rw[i].setup[k], Hold: rw[i].hold[k], SetupLSens: sl, HoldLSens: hl,
			})
		}
		for _, cr := range ig.ClockRoots {
			top.ClockRoots = append(top.ClockRoots, base[i]+cr)
		}
	}

	// Net edges (constant wire delays).
	lookup := func(p PortRef, wantInput bool) (int, error) {
		idx, ok := instIdx[p.Instance]
		if !ok {
			return 0, fmt.Errorf("hier: unknown instance %q", p.Instance)
		}
		ig := d.instGraph(d.Instances[idx], useOrig)
		pm := ports[ig]
		if wantInput {
			if k, ok := pm.in[p.Port]; ok {
				return base[idx] + ig.Inputs[k], nil
			}
		} else if k, ok := pm.out[p.Port]; ok {
			return base[idx] + ig.Outputs[k], nil
		}
		return 0, fmt.Errorf("hier: port %v not found", p)
	}
	for _, n := range d.Nets {
		from, err := lookup(n.From, false)
		if err != nil {
			return nil, err
		}
		to, err := lookup(n.To, true)
		if err != nil {
			return nil, err
		}
		if _, err := top.AddEdge(from, to, pp.space.Const(n.Delay), nil, 0); err != nil {
			return nil, err
		}
	}

	// Top-level IO.
	ins := make([]int, len(d.PrimaryInputs))
	inNames := make([]string, len(d.PrimaryInputs))
	for k, p := range d.PrimaryInputs {
		v, err := lookup(p, true)
		if err != nil {
			return nil, err
		}
		ins[k] = v
		inNames[k] = p.Instance + "." + p.Port
	}
	outs := make([]int, len(d.PrimaryOutputs))
	outNames := make([]string, len(d.PrimaryOutputs))
	for k, p := range d.PrimaryOutputs {
		v, err := lookup(p, false)
		if err != nil {
			return nil, err
		}
		outs[k] = v
		outNames[k] = p.Instance + "." + p.Port
	}
	if err := top.SetIO(ins, outs, inNames, outNames); err != nil {
		return nil, err
	}
	if _, err := top.Order(); err != nil {
		return nil, fmt.Errorf("hier: stitched design: %w", err)
	}
	return top, nil
}

func (d *Design) instGraph(inst *Instance, useOrig bool) *timing.Graph {
	if useOrig {
		return inst.Module.Orig
	}
	return inst.Module.Model.Graph
}

// boundaryExtras returns, per instance, the extra nominal delay (ps) to
// bill at module boundaries:
//
//   - extraTo, keyed by local output-port vertex: the load adjustment when
//     the port drives more than one net;
//   - extraFrom, keyed by local input-port vertex: the slew adjustment when
//     the driving port presents a transition different from the receiver's
//     characterization reference.
//
// Instances without recorded boundary characterization are left unadjusted.
//
// The per-net conditions are evaluated on the worker pool; contributions
// are then merged serially in net order, so the floating-point accumulation
// order — and hence the result — is identical to a serial run.
func (d *Design) boundaryExtras(ctx context.Context, useOrig bool, instIdx map[string]int, ports map[*timing.Graph]portIndex, workers int) (extraTo, extraFrom []map[int]float64, err error) {
	extraTo = make([]map[int]float64, len(d.Instances))
	extraFrom = make([]map[int]float64, len(d.Instances))
	for i := range extraTo {
		extraTo[i] = map[int]float64{}
		extraFrom[i] = map[int]float64{}
	}
	fanout := make(map[PortRef]int)
	for _, n := range d.Nets {
		fanout[n.From]++
	}
	graphOf := func(name string) (*timing.Graph, int, error) {
		idx, ok := instIdx[name]
		if !ok {
			return nil, 0, fmt.Errorf("hier: unknown instance %q", name)
		}
		return d.instGraph(d.Instances[idx], useOrig), idx, nil
	}
	// Load adjustment at driving output ports. Each driving port gets an
	// independent assignment, so map iteration order does not matter.
	for pr, cnt := range fanout {
		if cnt <= 1 {
			continue
		}
		ig, idx, err := graphOf(pr.Instance)
		if err != nil {
			return nil, nil, err
		}
		if ig.OutputLoadSlopes == nil {
			continue
		}
		if k, ok := ports[ig].out[pr.Port]; ok {
			extraTo[idx][ig.Outputs[k]] = ig.OutputLoadSlopes[k] * float64(cnt-1)
		}
	}
	// Slew adjustment at receiving input ports: evaluate per net in
	// parallel, accumulate in net order.
	type slewContrib struct {
		inst, vert int
		delta      float64
		ok         bool
	}
	contrib := make([]slewContrib, len(d.Nets))
	err = timing.ParallelForCtx(ctx, len(d.Nets), workers, func(_ context.Context, ni int) error {
		n := d.Nets[ni]
		fg, _, err := graphOf(n.From.Instance)
		if err != nil {
			return err
		}
		if fg.OutputPortSlews == nil {
			return nil
		}
		k, ok := ports[fg].out[n.From.Port]
		if !ok {
			return nil
		}
		drvSlew := fg.OutputPortSlews[k]
		if fg.OutputSlewSlopes != nil {
			drvSlew += fg.OutputSlewSlopes[k] * float64(fanout[n.From]-1)
		}
		tg, ti, err := graphOf(n.To.Instance)
		if err != nil {
			return err
		}
		if tg.InputSlewSlopes == nil || tg.RefSlew <= 0 {
			return nil
		}
		if kt, ok := ports[tg].in[n.To.Port]; ok {
			contrib[ni] = slewContrib{
				inst: ti, vert: tg.Inputs[kt],
				delta: tg.InputSlewSlopes[kt] * (drvSlew - tg.RefSlew),
				ok:    true,
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, c := range contrib {
		if c.ok {
			extraFrom[c.inst][c.vert] += c.delta
		}
	}
	return extraTo, extraFrom, nil
}

// portIndex maps port names to port positions for one instance graph —
// built once per stitch so the per-net and per-boundary-edge lookups are
// O(1) instead of linear scans over the port name lists.
type portIndex struct {
	in, out map[string]int
}

// portIndexes builds the per-graph port maps for every distinct instance
// graph of the design; instances sharing one module graph share one entry.
func (d *Design) portIndexes(useOrig bool) map[*timing.Graph]portIndex {
	idx := make(map[*timing.Graph]portIndex, len(d.Instances))
	for _, inst := range d.Instances {
		ig := d.instGraph(inst, useOrig)
		if _, ok := idx[ig]; ok {
			continue
		}
		pi := portIndex{
			in:  make(map[string]int, len(ig.InputNames)),
			out: make(map[string]int, len(ig.OutputNames)),
		}
		for k, n := range ig.InputNames {
			pi.in[n] = k
		}
		for k, n := range ig.OutputNames {
			pi.out[n] = k
		}
		idx[ig] = pi
	}
	return idx
}

func (m *Module) gridModel() *variation.GridModel {
	return m.Model.Graph.Grids
}

// replacementMatrix computes R = A^+ B_n for instance i: A^+ is the
// module-level PCA pseudo-inverse, B_n the rows of the design-level factor
// matrix belonging to the instance's grids (paper eqs. 16-19). R maps the
// design-level independent set x_t to the module's x; a module coefficient
// vector a becomes R^T a at design level.
func replacementMatrix(mgm *variation.GridModel, part *Partition, instIdx int) (*mat.Dense, error) {
	n := mgm.N()
	bsel := mat.NewDense(n, part.Grids.Comps)
	for g := 0; g < n; g++ {
		copy(bsel.Row(g), part.Grids.A.Row(part.InstStart[instIdx]+g))
	}
	return mat.Mul(mgm.Ainv, bsel)
}
