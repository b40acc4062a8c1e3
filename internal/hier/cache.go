package hier

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/mat"
	"repro/internal/timing"
	"repro/internal/variation"
)

// Package-wide prep-cache counters. The prep cache is per-Design, so
// aggregate statistics live here: the serving layer exposes them to
// prove that warm-started designs skip the dominant setup cost (the
// partition + PCA + replacement matrices) after a restart.
var (
	prepHits     atomic.Int64
	prepMisses   atomic.Int64
	stitchHits   atomic.Int64
	stitchMisses atomic.Int64
)

// PrepCacheStats reports aggregate prep-cache hits (an analysis reused a
// cached per-mode prep) and misses (a prep had to be computed) across
// all designs in the process.
func PrepCacheStats() (hits, misses int64) {
	return prepHits.Load(), prepMisses.Load()
}

// StitchCacheStats reports aggregate stitch-cache hits (Stitch or Analyze
// reused a design's stitched top graph) and misses (the top graph had to
// be stitched) across all designs in the process. DisableCache calls and
// Flatten count as neither.
func StitchCacheStats() (hits, misses int64) {
	return stitchHits.Load(), stitchMisses.Load()
}

// prep is the per-design, per-mode analysis model: everything Analyze
// derives from the design geometry alone, independent of the per-call
// propagation. For FullCorrelation that is the heterogeneous partition, its
// PCA and the per-instance replacement matrices (the dominant setup cost);
// for GlobalOnly the per-instance component block offsets. A prep is
// immutable once built and safe to share between concurrent analyses.
type prep struct {
	mode         Mode
	space        canon.Space
	part         *Partition   // FullCorrelation only
	repl         []*mat.Dense // FullCorrelation only, one per instance
	instLocStart []int        // GlobalOnly only, len(instances)+1
}

// prepSlot is a singleflight cache slot: the first analysis for a mode
// computes the prep, concurrent analyses block on done and share it.
type prepSlot struct {
	fp   designFP
	done chan struct{}
	p    *prep
	err  error
}

// designFP captures every design property the prep depends on, so a
// mutated design (moved instance, swapped module) transparently invalidates
// the cached prep instead of serving stale grids. It retains the Module and
// CorrelationModel pointers it compares, so a pointer match can never be a
// recycled allocation at the same address. It also holds each module's
// footprint (grid size and pitch), which Validate reads: together with
// stitchFP it covers every Validate input.
type designFP struct {
	width, height, pitch float64
	corr                 *variation.CorrelationModel
	nParams              int
	insts                []instFP
}

type instFP struct {
	name   string
	module *Module
	x, y   float64
	nx, ny int
	mpitch float64
}

func (d *Design) fingerprint() designFP {
	fp := designFP{
		width: d.Width, height: d.Height, pitch: d.Pitch,
		corr: d.Corr, nParams: len(d.Params),
		insts: make([]instFP, len(d.Instances)),
	}
	for i, inst := range d.Instances {
		fp.insts[i] = instFP{name: inst.Name, module: inst.Module, x: inst.OriginX, y: inst.OriginY}
		if m := inst.Module; m != nil {
			fp.insts[i].nx, fp.insts[i].ny, fp.insts[i].mpitch = m.NX, m.NY, m.Pitch
		}
	}
	return fp
}

func (a designFP) equal(b designFP) bool {
	if a.width != b.width || a.height != b.height || a.pitch != b.pitch ||
		a.corr != b.corr || a.nParams != b.nParams || len(a.insts) != len(b.insts) {
		return false
	}
	for i := range a.insts {
		if a.insts[i] != b.insts[i] {
			return false
		}
	}
	return true
}

// getPrep returns the cached prep for the mode (fp is the design's
// fingerprint), computing it on first use or after the design changed. Concurrent callers for the same mode are
// coalesced into one computation; a waiter whose ctx fires stops waiting.
// The computing caller runs under its own ctx — a cancellation there
// surfaces as an error and removes the failed slot. A waiter that
// coalesced onto such an aborted computation must not inherit the other
// caller's context error: if its own ctx is still live it retries against
// the (now empty) slot instead of failing spuriously.
func (d *Design) getPrep(ctx context.Context, mode Mode, opt AnalyzeOptions, fp designFP) (*prep, error) {
	if opt.DisableCache {
		return d.computePrep(ctx, mode, opt.Workers)
	}
	for {
		d.prepMu.Lock()
		if d.preps == nil {
			d.preps = make(map[Mode]*prepSlot)
		}
		if s := d.preps[mode]; s != nil && s.fp.equal(fp) {
			d.prepMu.Unlock()
			select {
			case <-s.done:
				if errors.Is(s.err, context.Canceled) || errors.Is(s.err, context.DeadlineExceeded) {
					if ctx.Err() == nil {
						continue // the computer was cancelled, we were not: retry
					}
					return nil, ctx.Err()
				}
				if s.err == nil {
					prepHits.Add(1)
				}
				return s.p, s.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		prepMisses.Add(1)
		s := &prepSlot{fp: fp, done: make(chan struct{})}
		d.preps[mode] = s
		d.prepMu.Unlock()

		s.p, s.err = d.computePrep(ctx, mode, opt.Workers)
		if s.err != nil {
			// Remove the failed slot BEFORE waking waiters: a retrying
			// waiter must find an empty slot (and recompute), not loop on
			// this one until we win the mutex again.
			d.prepMu.Lock()
			if d.preps[mode] == s {
				delete(d.preps, mode)
			}
			d.prepMu.Unlock()
		}
		close(s.done)
		return s.p, s.err
	}
}

// InvalidatePrep drops any cached analysis prep and stitched top graph, and
// the record of the last validation.
// Analyze and Stitch detect geometry, net, IO and boundary-characterization
// changes on their own via the design and stitch fingerprints; this is only
// needed after mutations the fingerprints cannot see — in particular
// in-place edits to the Edge.Delay forms (or edges) of a module's model
// graph.
func (d *Design) InvalidatePrep() {
	d.prepMu.Lock()
	d.preps = nil
	d.tops = nil
	d.valid = nil
	d.prepMu.Unlock()
}

// validFP is the pair of fingerprints a design had when it last passed
// Validate.
type validFP struct {
	design designFP
	stitch stitchFP
}

// validate runs Validate unless the design and stitch fingerprints equal
// those of the design's last successful validation, which proves every
// Validate input unchanged (DisableCache always validates). It returns the
// fingerprints for the caches to key on.
func (d *Design) validate(opt AnalyzeOptions) (designFP, stitchFP, error) {
	fp, sfp := d.fingerprint(), d.stitchFingerprint()
	if !opt.DisableCache {
		d.prepMu.Lock()
		ok := d.valid != nil && d.valid.design.equal(fp) && d.valid.stitch.equal(sfp)
		d.prepMu.Unlock()
		if ok {
			return fp, sfp, nil
		}
	}
	if err := d.Validate(); err != nil {
		return designFP{}, stitchFP{}, err
	}
	d.prepMu.Lock()
	d.valid = &validFP{design: fp, stitch: sfp}
	d.prepMu.Unlock()
	return fp, sfp, nil
}

// stitchSlot is one cached stitched top graph: valid while the design
// still maps to the same prep (so the design fingerprint matched) and the
// stitch fingerprint matches. The graph is shared read-only by every
// Result handed out for it.
type stitchSlot struct {
	prep *prep
	fp   stitchFP
	top  *timing.Graph
}

// stitchFP captures everything buildTop reads beyond the prep: the nets
// (including wire delays), the primary IO, and per distinct instance graph
// the boundary characterization contents plus the edge count, and the port
// names Validate checks references against. Slices are copied, so
// in-place edits to nets, slopes or names are seen as changes. An
// instance without a module graph (which Validate refuses) contributes
// nothing.
type stitchFP struct {
	nets     []Net
	pis, pos []PortRef
	graphs   []graphFP
}

type graphFP struct {
	g             *timing.Graph
	edges         int
	inNames       []string
	outNames      []string
	refSlew       float64
	loadSlopes    []float64
	inSlewSlopes  []float64
	outSlews      []float64
	outSlewSlopes []float64
}

func (d *Design) stitchFingerprint() stitchFP {
	fp := stitchFP{
		nets: slices.Clone(d.Nets),
		pis:  slices.Clone(d.PrimaryInputs),
		pos:  slices.Clone(d.PrimaryOutputs),
	}
	for _, inst := range d.Instances {
		if inst.Module == nil || inst.Module.Model == nil || inst.Module.Model.Graph == nil {
			continue
		}
		g := inst.Module.Model.Graph
		if slices.ContainsFunc(fp.graphs, func(gf graphFP) bool { return gf.g == g }) {
			continue
		}
		fp.graphs = append(fp.graphs, graphFP{
			g: g, edges: len(g.Edges), refSlew: g.RefSlew,
			inNames:       slices.Clone(g.InputNames),
			outNames:      slices.Clone(g.OutputNames),
			loadSlopes:    slices.Clone(g.OutputLoadSlopes),
			inSlewSlopes:  slices.Clone(g.InputSlewSlopes),
			outSlews:      slices.Clone(g.OutputPortSlews),
			outSlewSlopes: slices.Clone(g.OutputSlewSlopes),
		})
	}
	return fp
}

func (a stitchFP) equal(b stitchFP) bool {
	if !slices.Equal(a.nets, b.nets) || !slices.Equal(a.pis, b.pis) ||
		!slices.Equal(a.pos, b.pos) || len(a.graphs) != len(b.graphs) {
		return false
	}
	for i := range a.graphs {
		x, y := &a.graphs[i], &b.graphs[i]
		if x.g != y.g || x.edges != y.edges || x.refSlew != y.refSlew ||
			!slices.Equal(x.inNames, y.inNames) || !slices.Equal(x.outNames, y.outNames) ||
			!slices.Equal(x.loadSlopes, y.loadSlopes) || !slices.Equal(x.inSlewSlopes, y.inSlewSlopes) ||
			!slices.Equal(x.outSlews, y.outSlews) || !slices.Equal(x.outSlewSlopes, y.outSlewSlopes) {
			return false
		}
	}
	return true
}

// cachedTop returns the design's stitched top graph for the mode when the
// cached one was built from pp and the same stitch fingerprint.
func (d *Design) cachedTop(mode Mode, pp *prep, fp stitchFP) *timing.Graph {
	d.prepMu.Lock()
	defer d.prepMu.Unlock()
	if s := d.tops[mode]; s != nil && s.prep == pp && s.fp.equal(fp) {
		return s.top
	}
	return nil
}

// storeTop caches a freshly stitched top graph. It is not a singleflight:
// concurrent misses each stitch (identically) and the last one is kept.
func (d *Design) storeTop(mode Mode, pp *prep, fp stitchFP, top *timing.Graph) {
	d.prepMu.Lock()
	defer d.prepMu.Unlock()
	if d.tops == nil {
		d.tops = make(map[Mode]*stitchSlot)
	}
	d.tops[mode] = &stitchSlot{prep: pp, fp: fp, top: top}
}

// computePrep derives the per-mode analysis model, fanning the
// per-instance replacement matrices out over the worker pool.
func (d *Design) computePrep(ctx context.Context, mode Mode, workers int) (*prep, error) {
	nP := len(d.Params)
	p := &prep{mode: mode}
	switch mode {
	case FullCorrelation:
		part, err := d.partition()
		if err != nil {
			return nil, err
		}
		p.part = part
		p.space = canon.Space{Globals: nP, Components: nP * part.Grids.Comps}
		p.repl = make([]*mat.Dense, len(d.Instances))
		err = timing.ParallelForCtx(ctx, len(d.Instances), workers, func(_ context.Context, i int) error {
			r, err := replacementMatrix(d.Instances[i].Module.gridModel(), part, i)
			if err != nil {
				return fmt.Errorf("hier: instance %q: %w", d.Instances[i].Name, err)
			}
			p.repl[i] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
	case GlobalOnly:
		p.instLocStart = make([]int, len(d.Instances)+1)
		for i, inst := range d.Instances {
			p.instLocStart[i+1] = p.instLocStart[i] + nP*inst.Module.gridModel().Comps
		}
		p.space = canon.Space{Globals: nP, Components: p.instLocStart[len(d.Instances)]}
	default:
		return nil, fmt.Errorf("hier: unknown mode %d", mode)
	}
	return p, nil
}
