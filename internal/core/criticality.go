// Package core implements the paper's first contribution: statistical
// timing-model extraction for combinational modules (Sections III and IV).
//
// The extraction pipeline (paper Fig. 3) is:
//  1. compute the maximum criticality c_m of every edge over all
//     input/output pairs (Definition 1/2, eqs. 13-15),
//  2. remove edges with c_m below the threshold delta,
//  3. apply serial and parallel merge operations iteratively (Figs. 1-2).
//
// The reduced graph is a gray-box timing model with (approximately) the
// same statistical input-output delay matrix as the original module.
package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/stats"
	"repro/internal/timing"
)

// CriticalityResult bundles the outputs of the criticality engine.
type CriticalityResult struct {
	// Cm holds the maximum criticality of each edge over all IO pairs,
	// aligned with g.Edges (paper Definition 2). Under a criticality screen
	// (CriticalityOptions.ScreenDelta) entries at or above the threshold are
	// exact; entries below it may be conservative upper bounds (see
	// EdgeCriticalitiesOpt). Tombstoned edges carry zero.
	Cm []float64
	// Protected marks edges on a per-pair statistically dominant path
	// (greedy max-nominal backward walk). Removing only unprotected edges
	// guarantees every originally connected pair stays connected.
	Protected []bool
	// ScreenedBoundaries counts the per-(pair, boundary) home-edge
	// evaluations the delta-threshold screen pruned — zero in exact mode; a
	// diagnostic for pruning effectiveness, not part of the result proper.
	// (Branch-and-bound skips, which are value-exact and run in both modes,
	// are not counted here.)
	ScreenedBoundaries int64
}

// CriticalityOptions tunes the all-pairs criticality engine.
type CriticalityOptions struct {
	// Workers bounds the per-input fan-out (<=0: GOMAXPROCS).
	Workers int
	// ScreenDelta > 0 enables the delta-threshold criticality screen: a
	// home edge whose cheap criticality upper bound (exact nominal slack
	// over the boundary's sigma sum, see runInput) provably cannot reach
	// ScreenDelta skips its form evaluation and records the bound instead.
	// Cm entries >= ScreenDelta are unaffected (bit-identical to the exact
	// engine); entries below it may be the screen's upper bound instead of
	// the exact criticality, which is indistinguishable to a removal
	// decision at threshold ScreenDelta. Zero (or negative) keeps the exact
	// engine everywhere — the Fig. 6 escape hatch.
	ScreenDelta float64
}

// EdgeCriticalities runs the all-pairs criticality analysis of Section IV-B
// with `workers` concurrent per-input passes (<=0 means GOMAXPROCS).
//
// For every pair (i, j) and edge e it forms the edge path delay
//
//	de = a_e(i) + d(e) + r_e(j)            (paper eq. 15)
//
// and evaluates c_ij = P{de >= complement} (paper eqs. 13-14) with the
// tightness probability of eq. 6.
//
// The complement max{d̄e} is constructed through level cutsets: every i->j
// path crosses each logic-level boundary exactly once, so the edges
// crossing a boundary partition the paths, and the complement of e is the
// statistical max of de over the other crossing edges. Comparing de against
// the *forward-propagated* M_ij instead (the literal reading of eq. 14)
// makes an edge that carries every path of the pair come out near 0.5
// rather than 1, because the canonical form cannot represent the
// correlation between the lumped private-random parts of de and M_ij; the
// cutset complement avoids that representation gap entirely and matches
// Monte Carlo path tracing (see tests).
func EdgeCriticalities(g *timing.Graph, workers int) (*CriticalityResult, error) {
	return EdgeCriticalitiesCtx(context.Background(), g, workers)
}

// EdgeCriticalitiesCtx is EdgeCriticalities with cooperative cancellation:
// the per-input tasks run on a timing.ParallelForCtx pool, so a ctx firing
// (or any task failing) cancels the remaining inputs promptly and worker
// panics resurface on the caller as *timing.PanicError.
func EdgeCriticalitiesCtx(ctx context.Context, g *timing.Graph, workers int) (*CriticalityResult, error) {
	return EdgeCriticalitiesOpt(ctx, g, CriticalityOptions{Workers: workers})
}

// EdgeCriticalitiesOpt is the full-surface criticality entry point: exact
// by default, screened when opt.ScreenDelta > 0 (see CriticalityOptions).
func EdgeCriticalitiesOpt(ctx context.Context, g *timing.Graph, opt CriticalityOptions) (*CriticalityResult, error) {
	nE := len(g.Edges)
	if nE == 0 {
		return &CriticalityResult{}, nil
	}
	en, err := newCritEngine(ctx, g, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	defer en.release()

	workers := timing.Workers(opt.Workers, len(g.Inputs))
	type acc struct {
		cm        []float64
		protected []bool
		ws        *critScratch
	}
	pool := make(chan *acc, workers)
	for w := 0; w < workers; w++ {
		pool <- &acc{
			cm:        make([]float64, nE),
			protected: make([]bool, nE),
			ws:        en.newScratch(),
		}
	}
	accs := make([]*acc, 0, workers)
	defer func() {
		// Drain whatever came back (on success: everything) and release the
		// pooled pass arenas. A worker panic resurfaces via ParallelForCtx
		// after the pool drained, so this defer still sees every scratch.
		for {
			select {
			case a := <-pool:
				a.ws.release()
			default:
				return
			}
		}
	}()
	err = timing.ParallelForCtx(ctx, len(g.Inputs), workers, func(ctx context.Context, i int) error {
		a := <-pool
		defer func() { pool <- a }()
		return en.runInput(ctx, i, a.cm, a.protected, a.ws)
	})
	if err != nil {
		return nil, err
	}
	for len(accs) < workers {
		accs = append(accs, <-pool)
	}
	res := &CriticalityResult{Cm: make([]float64, nE), Protected: make([]bool, nE)}
	for _, a := range accs {
		for e := 0; e < nE; e++ {
			if a.cm[e] > res.Cm[e] {
				res.Cm[e] = a.cm[e]
			}
			if a.protected[e] {
				res.Protected[e] = true
			}
		}
		pool <- a // hand back for the deferred scratch release
	}
	res.ScreenedBoundaries = en.screened.Load()
	return res, nil
}

// critEngine is the prepared state shared by every criticality input row:
// level cutsets, reachability, per-output backward passes, the flat delay
// bank, and the scalar screen tables. One engine serves both the one-shot
// all-pairs run and the per-row recomputation of IncrementalCriticality.
type critEngine struct {
	g   *timing.Graph
	opt CriticalityOptions

	lv       *timing.Levels
	rs       *timing.ReachSets
	crossing [][]cutEdge // boundary k (1..maxLevel): alive crossing edges
	maxCross int
	nCross   int // total crossing entries over every boundary

	outs [][]int32 // input position -> reachable output positions

	delays *canon.Bank

	// Per-output backward passes. Entries are nil for outputs the engine
	// was not prepared for (incremental refresh prepares only the outputs
	// its recomputed rows touch).
	req []*timing.Pass

	screen bool
	// screenCutZ is the largest z with Phi(z) < ScreenDelta under the
	// engine's CDF (stats.NormTP), so the scalar bound pass can screen in
	// z-space: zb <= screenCutZ exactly when Phi(zb) < ScreenDelta.
	screenCutZ float64
	screened   atomic.Int64 // home evaluations pruned by the screen

	// nonneg records that every live edge delay has a nonnegative shared
	// coefficient vector. Adds and Clark blends (convex combinations)
	// preserve that sign through arrivals, requireds and chains, so every
	// covariance the engine ever folds is provably nonnegative and the
	// bound pass may use the tighter theta bound sqrt(v(de) + oS^2) in
	// place of Cauchy-Schwarz's sig(de) + oS (see runInput).
	nonneg bool
}

// cutEdge is one level-cutset entry: an edge with its endpoints and
// whether the boundary is its home, so the row loop streams a compact
// cutset instead of visiting g.Edges.
type cutEdge struct {
	e, from, to int32
	home        bool
}

// newCritEngine prepares the shared state. rs may carry a pre-computed
// reachability (nil: computed here); needOut selects the outputs to prepare
// backward state for (nil: all).
func newCritEngine(ctx context.Context, g *timing.Graph, opt CriticalityOptions, rs *timing.ReachSets, needOut []bool) (*critEngine, error) {
	// ScreenDelta is a criticality probability: a threshold >= 1 has no
	// z-space crossover and the ulp bracketing below would never
	// terminate. Reject it — options may arrive from untrusted input
	// (a restored session checkpoint, an API request).
	if opt.ScreenDelta >= 1 || math.IsNaN(opt.ScreenDelta) {
		return nil, fmt.Errorf("core: criticality screen delta %g outside [0, 1)", opt.ScreenDelta)
	}
	lv, err := g.Levels()
	if err != nil {
		return nil, err
	}
	if rs == nil {
		if rs, err = g.Reachability(); err != nil {
			return nil, err
		}
	}
	en := &critEngine{
		g: g, opt: opt, lv: lv, rs: rs,
		screen: opt.ScreenDelta > 0,
	}
	if en.screen {
		// Bracket the screen threshold in z-space: start from the quantile
		// and nudge by ulps until screenCutZ is the exact crossover of the
		// engine's own CDF.
		q := stats.NormQuantile(opt.ScreenDelta)
		for c, _ := stats.NormTP(q); c >= opt.ScreenDelta; c, _ = stats.NormTP(q) {
			q = math.Nextafter(q, math.Inf(-1))
		}
		for {
			up := math.Nextafter(q, math.Inf(1))
			if c, _ := stats.NormTP(up); c >= opt.ScreenDelta {
				break
			}
			q = up
		}
		en.screenCutZ = q
	}

	// Level-boundary cutsets: an edge u->v with level(u) < k <= level(v)
	// crosses boundary k; its criticality is evaluated once, at its home
	// boundary level(u)+1. Tombstoned edges are on no path and never enter
	// a cutset.
	en.crossing = make([][]cutEdge, lv.MaxLevel+1)
	for e := range g.Edges {
		ed := &g.Edges[e]
		if ed.Removed {
			continue
		}
		lf, lt := lv.Level[ed.From], lv.Level[ed.To]
		for k := lf + 1; k <= lt; k++ {
			en.crossing[k] = append(en.crossing[k], cutEdge{int32(e), int32(ed.From), int32(ed.To), k == lf+1})
		}
	}
	for _, c := range en.crossing {
		en.maxCross = max(en.maxCross, len(c))
		en.nCross += len(c)
	}

	// Sparse per-input list of reachable output positions.
	en.outs = make([][]int32, len(g.Inputs))
	for i, in := range g.Inputs {
		for j := range g.Outputs {
			if rs.ReachesOutput(in, j) {
				en.outs[i] = append(en.outs[i], int32(j))
			}
		}
	}

	en.delays = g.EdgeDelays() // build the flat delay bank before fanning out

	en.nonneg = true
	for e := range g.Edges {
		if g.Edges[e].Removed {
			continue
		}
		v := en.delays.View(e)
		for _, c := range v[1 : len(v)-1] {
			if c < 0 {
				en.nonneg = false
				break
			}
		}
		if !en.nonneg {
			break
		}
	}

	// Backward passes: vertex-to-output-j delay arenas, held for the
	// engine's lifetime, one per prepared output.
	en.req = make([]*timing.Pass, len(g.Outputs))
	err = timing.ParallelForCtx(ctx, len(g.Outputs), opt.Workers, func(ctx context.Context, j int) error {
		if needOut != nil && !needOut[j] {
			return nil
		}
		p := g.AcquirePass().WithContext(ctx)
		if err := p.Required(g.Outputs[j]); err != nil {
			p.Release()
			return err
		}
		en.req[j] = p
		return nil
	})
	if err != nil {
		en.release()
		return nil, err
	}
	return en, nil
}

// release returns the engine's pooled pass arenas.
func (en *critEngine) release() {
	for _, p := range en.req {
		if p != nil {
			p.Release()
		}
	}
	en.req = nil
}

// critScratch is the per-worker arena of the input-row loop: one arrival
// pass, the chain-slot bank, the per-pair path-delay cache, the shared
// base-form bank, and the scalar bound buffers. Everything is sized once;
// the row loop never allocates.
type critScratch struct {
	arrP *timing.Pass

	// reach holds every boundary's crossing edges that the current input
	// reaches, boundary k at reach[reachAt[k]:reachAt[k+1]]: the input's
	// half of the alive filter, applied once per input row instead of once
	// per (input, output) pair.
	reach   []cutEdge
	reachAt []int

	// chains holds one boundary's prefix/suffix Clark maxima: slot t is
	// prefix[t], slot maxCross+t is suffix[t].
	chains *canon.Bank

	// base caches a_e(i) + d(e) per edge for the current input — the half
	// of eq. 15 that does not depend on the output — so it is added once
	// per (input, edge) instead of once per (input, output, edge).
	base   *canon.Bank
	baseOK []bool

	// de holds one boundary's alive path delays a_e(i) + d(e) + r_e(j) in
	// crossing order (slot t for alive[t]), with their tracked variances
	// alongside in deCv/deR2. The bank is sized to the widest cutset —
	// cache-resident under the chain and tightness passes, unlike an
	// edge-count-sized arena.
	de   *canon.Bank
	deCv []float64
	deR2 []float64

	// cmZ carries the z-score whose CDF is the paired cm entry the fold
	// last wrote (-Inf for untouched entries, +Inf for the certain-one
	// cases), so the branch-and-bound and screen tests compare in z-space
	// without evaluating a CDF. It must track exactly the cm slice handed
	// to runInput: the one-shot run pairs each worker scratch with one
	// accumulator for the whole run; the incremental refresh resets cmZ
	// before every fresh row.
	cmZ []float64

	nomDe, sigDe     []float64 // per-alive-edge scalars at one boundary
	prefNom, prefSig []float64
	sufNom, sufSig   []float64

	prefCv, prefR2 []float64 // tracked variances of the chain slots
	sufCv, sufR2   []float64

	des, prefix, suffix []canon.View
	alive               []cutEdge
	evalHome            []int32
}

// newScratch builds a worker arena sized to the engine's graph.
func (en *critEngine) newScratch() *critScratch {
	g := en.g
	nE := len(g.Edges)
	ws := &critScratch{
		arrP:    g.AcquirePass(),
		reach:   make([]cutEdge, 0, en.nCross),
		reachAt: make([]int, en.lv.MaxLevel+2),
		chains:  canon.NewBank(g.Space, 2*en.maxCross),
		base:    canon.NewBank(g.Space, nE),
		baseOK:  make([]bool, nE),
		de:      canon.NewBank(g.Space, en.maxCross),
		deCv:    make([]float64, en.maxCross),
		deR2:    make([]float64, en.maxCross),
		cmZ:     make([]float64, nE),
		nomDe:   make([]float64, en.maxCross),
		sigDe:   make([]float64, en.maxCross),
		prefNom: make([]float64, en.maxCross),
		prefSig: make([]float64, en.maxCross),
		sufNom:  make([]float64, en.maxCross),
		sufSig:  make([]float64, en.maxCross),
		prefCv:  make([]float64, en.maxCross),
		prefR2:  make([]float64, en.maxCross),
		sufCv:   make([]float64, en.maxCross),
		sufR2:   make([]float64, en.maxCross),
		prefix:  make([]canon.View, en.maxCross),
		suffix:  make([]canon.View, en.maxCross),
	}
	ws.resetFold()
	return ws
}

// resetFold re-arms the z-space fold state for a zeroed cm row: cmZ slides
// back to -Inf (the z of criticality 0).
func (ws *critScratch) resetFold() {
	negInf := math.Inf(-1)
	for e := range ws.cmZ {
		ws.cmZ[e] = negInf
	}
}

// release gives the scratch's pooled pass back.
func (ws *critScratch) release() {
	if ws.arrP != nil {
		ws.arrP.Release()
		ws.arrP = nil
	}
}

// runInput computes one input's contribution to the criticality result:
// for input position i, it max-folds c_ij over every reachable output j
// into cm (aligned with g.Edges) and ORs the per-pair dominant-path edges
// into protected. Callers either pass per-worker accumulators (one-shot
// run) or a zeroed per-input row (incremental refresh); the fold semantics
// are identical — and because every skipped evaluation provably cannot
// displace the fold's maximum (see the bound analysis below), the final
// folded values are bit-identical across accumulator layouts.
//
// Per boundary the loop runs three stages. First it materializes the
// alive crossing path delays into a compact per-boundary bank sized to the
// widest cutset — small enough to stay cache-resident under the chain and
// tightness passes that re-read every slot several times (an edge spanning
// several levels is re-materialized at each boundary it crosses; the extra
// adds are cheaper than the cache misses of an edge-count-sized arena). Then a
// scalar pass bounds every home edge's criticality in z-space:
//
//	z_e  <=  zb = (nom(de) - maxOther nom) / (sig(de) + maxOther sig)
//
// whenever nom(de) < maxOther nom (otherwise zb = +Inf and the bound is
// the certain 1). The bound is sound against the engine's own Clark
// evaluation: the complement chain's mean dominates every member nominal
// (Clark's max mean dominates both operand means — the Mills-ratio
// inequality phi(z) >= z(1-Phi(z)) — inductively through the chain,
// including the degenerate larger-mean copy and the variance clip, which
// never lowers the mean), its sigma never exceeds the largest member sigma
// (Gaussian Poincare: max(A,B) has gradient a.e. equal to one operand's
// coefficient vector, so Var(max) <= max(VarA, VarB), preserved by the
// representability clip since the blended shared energy is itself a convex
// combination), and theta(de, comp) <= sig(de) + sig(comp) by
// Cauchy-Schwarz. A more negative numerator over a larger denominator only
// lowers z. The fold tracks (cm, cmZ) pairs, so both tests run without a
// CDF call: a home edge with zb <= cmZ[e] is skipped outright
// (branch-and-bound — exact, since the skipped value cannot raise the
// fold), and under a screen, zb at or below the precomputed screenCutZ
// crossover skips the evaluation and folds the bound instead. The
// evaluation kernels likewise return only the final z, and the pass pays
// for a CDF only when a z, bound or evaluated, advances the fold (on c1908
// about 10k of 543k evaluations do).
//
// Home edges that survive both tests reach the third stage:
// tracked-variance prefix/suffix Clark chains (built only over the index
// range the survivors need) and a fused complement tightness per survivor
// that never materializes the merged complement form. (Truncating the
// complement to "dominant" operands was evaluated and rejected: on the
// boundaries that actually evaluate, nominal gaps never reach even 2 sigma
// of the exact pairwise spread — the crossing operands genuinely compete,
// and no sound dominance test prunes any of them.)
func (en *critEngine) runInput(ctx context.Context, i int, cm []float64, protected []bool, ws *critScratch) error {
	g := en.g
	in := g.Inputs[i]
	arrP := ws.arrP.WithContext(ctx)
	if err := arrP.Arrivals(in); err != nil {
		return err
	}
	for e := range ws.baseOK {
		ws.baseOK[e] = false
	}
	reach := ws.reach[:0]
	for k := 1; k <= en.lv.MaxLevel; k++ {
		ws.reachAt[k] = len(reach)
		for _, c := range en.crossing[k] {
			if arrP.Reached(int(c.from)) {
				reach = append(reach, c)
			}
		}
	}
	ws.reachAt[en.lv.MaxLevel+1] = len(reach)
	ws.reach = reach
	for _, j := range en.outs[i] {
		if err := ctx.Err(); err != nil {
			return err
		}
		out := g.Outputs[j]
		if !arrP.Reached(out) {
			// The output is outside this input's cone: no i->j path exists,
			// so no boundary has an alive crossing edge and there is no
			// dominant path to protect.
			continue
		}
		rq := en.req[j]

		// Dominant-path protection: walk backward from the output along the
		// max-nominal fanin chain.
		for v := out; v != in; {
			bestEdge := -1
			bestNom := 0.0
			for _, ei := range g.In[v] {
				ed := &g.Edges[ei]
				if !arrP.Reached(ed.From) {
					continue
				}
				if nom := arrP.At(ed.From).Nominal() + ed.Delay.Nominal; bestEdge < 0 || nom > bestNom {
					bestEdge, bestNom = int(ei), nom
				}
			}
			if bestEdge < 0 {
				break // defensive: unreachable on a live path
			}
			protected[bestEdge] = true
			v = g.Edges[bestEdge].From
		}

		for k := 1; k <= en.lv.MaxLevel; k++ {
			// Gather crossing edges alive for this pair: the input-reached
			// ones that reach the output.
			alive := ws.alive[:0]
			nHome := 0
			for _, c := range reach[ws.reachAt[k]:ws.reachAt[k+1]] {
				if !rq.Reached(int(c.to)) {
					continue
				}
				alive = append(alive, c)
				if c.home {
					nHome++
				}
			}
			ws.alive = alive
			m := len(alive)
			if m == 0 {
				continue
			}
			if m == 1 {
				// Single crossing edge: every path of the pair runs
				// through it.
				if c := alive[0]; c.home {
					cm[c.e] = 1
					ws.cmZ[c.e] = math.Inf(1)
				}
				continue
			}
			if nHome == 0 {
				// No alive home edge: nothing is evaluated at this
				// boundary in any mode.
				continue
			}
			// Materialize the alive path delays into the compact
			// per-boundary bank (slot t holds alive[t]). An edge spanning
			// several levels is re-materialized at every boundary it crosses;
			// pair-scoped slot reuse was tried and measured slower — the
			// scattered slot order defeats the prefetcher on the chain and
			// tightness reads, costing more than the saved adds.
			des := ws.des[:0]
			nomDe, sigDe := ws.nomDe[:m], ws.sigDe[:m]
			deCv, deR2 := ws.deCv[:m], ws.deR2[:m]
			for t, c := range alive {
				bv := ws.base.View(int(c.e))
				if !ws.baseOK[c.e] {
					canon.AddViews(bv, arrP.At(int(c.from)), en.delays.View(int(c.e)))
					ws.baseOK[c.e] = true
				}
				de := ws.de.View(t)
				cv, r2 := canon.AddViewsVar(de, bv, rq.At(int(c.to)))
				deCv[t], deR2[t] = cv, r2
				des = append(des, de)
				nomDe[t] = de.Nominal()
				sigDe[t] = math.Sqrt(cv + r2)
			}
			ws.des = des
			// Scalar bound pass: leave-one-out nominal/sigma maxima, then
			// the branch-and-bound and screen tests per home edge.
			prefNom, prefSig := ws.prefNom[:m], ws.prefSig[:m]
			sufNom, sufSig := ws.sufNom[:m], ws.sufSig[:m]
			prefNom[0], prefSig[0] = nomDe[0], sigDe[0]
			for t := 1; t < m; t++ {
				prefNom[t] = maxf(prefNom[t-1], nomDe[t])
				prefSig[t] = maxf(prefSig[t-1], sigDe[t])
			}
			sufNom[m-1], sufSig[m-1] = nomDe[m-1], sigDe[m-1]
			for t := m - 2; t >= 0; t-- {
				sufNom[t] = maxf(sufNom[t+1], nomDe[t])
				sufSig[t] = maxf(sufSig[t+1], sigDe[t])
			}
			evalHome := ws.evalHome[:0]
			screened := int64(0)
			for t, c := range alive {
				if !c.home {
					continue
				}
				e := c.e
				var oN, oS float64
				switch t {
				case 0:
					oN, oS = sufNom[1], sufSig[1]
				case m - 1:
					oN, oS = prefNom[m-2], prefSig[m-2]
				default:
					oN = maxf(prefNom[t-1], sufNom[t+1])
					oS = maxf(prefSig[t-1], sufSig[t+1])
				}
				zb := math.Inf(1)
				if nomDe[t] < oN {
					if en.nonneg {
						// cov(de, comp) >= 0, so theta^2 <= v(de) + v(comp)
						// <= v(de) + oS^2 — up to sqrt(2) tighter than the
						// sign-free Cauchy-Schwarz denominator below.
						zb = (nomDe[t] - oN) / math.Sqrt(deCv[t]+deR2[t]+oS*oS)
					} else {
						zb = (nomDe[t] - oN) / (sigDe[t] + oS)
					}
				}
				if en.screen && zb <= en.screenCutZ {
					// Screen prune: the exact value cannot reach the
					// removal threshold; record the bound.
					if zb > ws.cmZ[e] {
						b, _ := stats.NormTP(zb)
						cm[e], ws.cmZ[e] = b, zb
					}
					screened++
					continue
				}
				if zb <= ws.cmZ[e] {
					// Branch-and-bound: this evaluation cannot raise the
					// fold — skipping it leaves the final Cm exact.
					continue
				}
				evalHome = append(evalHome, int32(t))
			}
			ws.evalHome = evalHome
			if screened > 0 {
				en.screened.Add(screened)
			}
			if len(evalHome) == 0 {
				continue // every home edge skipped: no chains needed
			}
			// Chain demand: the prefix depth and suffix start the surviving
			// home edges actually reference.
			maxPref, loSuf := -1, m
			for _, t32 := range evalHome {
				switch t := int(t32); {
				case t == 0:
					loSuf = 1
				case t == m-1:
					if m-2 > maxPref {
						maxPref = m - 2
					}
				default:
					if t-1 > maxPref {
						maxPref = t - 1
					}
					if t+1 < loSuf {
						loSuf = t + 1
					}
				}
			}
			// Tracked-variance Clark chains, prefix and suffix, their steps
			// alternating. Slot 0 / m-1 alias the path delays directly. Each
			// fold keeps its own step order, so the results are bit-identical
			// to running the folds one after the other. The alternation hides
			// no latency: a step costs the same (~135 ns at dim 20) alone or
			// beside other independent chains, so steps are bound by their
			// instruction count, not by the dependency between them.
			prefix, suffix := ws.prefix[:m], ws.suffix[:m]
			prefCv, prefR2 := ws.prefCv[:m], ws.prefR2[:m]
			sufCv, sufR2 := ws.sufCv[:m], ws.sufR2[:m]
			if maxPref >= 0 {
				prefix[0] = des[0]
				prefCv[0], prefR2[0] = deCv[0], deR2[0]
			}
			if loSuf < m {
				suffix[m-1] = des[m-1]
				sufCv[m-1], sufR2[m-1] = deCv[m-1], deR2[m-1]
			}
			for pt, st := 1, m-2; pt <= maxPref || st >= loSuf; {
				if pt <= maxPref {
					prefix[pt] = ws.chains.View(pt)
					prefCv[pt], prefR2[pt] = canon.MaxViewsVar(prefix[pt], prefix[pt-1], des[pt],
						prefCv[pt-1], prefR2[pt-1], deCv[pt], deR2[pt])
					pt++
				}
				if st >= loSuf {
					suffix[st] = ws.chains.View(en.maxCross + st)
					sufCv[st], sufR2[st] = canon.MaxViewsVar(suffix[st], suffix[st+1], des[st],
						sufCv[st+1], sufR2[st+1], deCv[st], deR2[st])
					st--
				}
			}
			for _, t32 := range evalHome {
				t := int(t32)
				e := alive[t].e
				vDe := deCv[t] + deR2[t]
				var zc float64
				switch {
				case t == 0:
					zc = canon.TightnessProbVar(des[0], suffix[1], vDe, sufCv[1]+sufR2[1])
				case t == m-1:
					zc = canon.TightnessProbVar(des[m-1], prefix[m-2], vDe, prefCv[m-2]+prefR2[m-2])
				default:
					zc = canon.CompTightnessViews(des[t], prefix[t-1], suffix[t+1], vDe,
						prefCv[t-1], prefR2[t-1], sufCv[t+1], sufR2[t+1])
				}
				// Only an evaluation that raises the fold pays for its
				// CDF; most lose to a value an earlier output folded.
				if zc > ws.cmZ[e] {
					cm[e], ws.cmZ[e] = canon.TightnessCDF(zc), zc
				}
			}
		}
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// CriticalityHistogram bins the per-edge maximum criticalities (paper
// Fig. 6 uses 20 bins over [0, 1]).
func CriticalityHistogram(cm []float64, bins int) (*stats.Histogram, error) {
	h, err := stats.NewHistogram(0, 1, bins)
	if err != nil {
		return nil, err
	}
	for _, c := range cm {
		h.Add(c)
	}
	return h, nil
}
