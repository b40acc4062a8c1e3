// Package repro is a from-scratch Go reproduction of Li, Chen, Schmidt,
// Schneider, Schlichtmann: "On Hierarchical Statistical Static Timing
// Analysis" (DATE 2009, DOI 10.1109/DATE.2009.5090869).
//
// The public API lives in the ssta package; the experiment harnesses that
// regenerate the paper's Table I and Figures 6-7 live under cmd/, and
// cmd/sstad serves the engine as a long-running HTTP daemon.
//
// # Package layout
//
//	ssta                the public facade: default flow, batch scheduler,
//	                    re-exported domain types
//	internal/canon      canonical first-order delay forms (Clark max,
//	                    tightness probabilities) in two representations:
//	                    pointer-based *Form at API boundaries, and the flat
//	                    Bank/View arena (contiguous SoA storage + fused
//	                    allocation-free kernels) the hot path runs on
//	internal/timing     statistical timing graphs, pooled-arena propagation
//	                    passes (Pass, latest- and earliest-arrival),
//	                    sequential setup/hold slack, all-pairs delays, the
//	                    shared bounded worker pool (ParallelFor)
//	internal/core       timing-model extraction (criticality filter +
//	                    merges) and the LRU-bounded extraction cache
//	internal/hier       hierarchical design-level analysis: heterogeneous
//	                    grid partition, eq. 19 variable replacement, the
//	                    cached+parallel stitching engine
//	internal/scenario   the MCMM sweep engine: named scenario transforms
//	                    (derates, per-edge-class scales, sigma multipliers,
//	                    clock period/skew/jitter, module swaps) evaluated
//	                    against one shared prep
//	internal/server     the sstad serving layer: HTTP/JSON batch analysis,
//	                    MCMM sweeps, async jobs, admission control,
//	                    health + metrics
//	internal/variation  process parameters, grid correlation, PCA
//	internal/circuit    netlists: DFF-aware .bench reader, ISCAS85-like
//	                    generator (combinational + clocked), multipliers, c17
//	internal/cell       synthetic 90nm cell library
//	internal/place      topological placement and grid binning
//	internal/mc         Monte Carlo ground truth
//	internal/memo       the generic singleflight LRU cache behind the
//	                    extraction, graph and quad-design caches
//	internal/mat,stats  small dense-matrix and statistics kernels
//
// # Concurrency and caching
//
// The analysis engine is concurrent and cache-aware end to end:
//
//   - timing.ParallelFor is the one bounded worker pool used by all-pairs
//     delay passes, the criticality engine, the hierarchical stitcher and
//     the batch scheduler. Workers == 1 always degenerates to a strictly
//     serial loop, so every parallel path has a bit-identical serial twin.
//     ParallelForCtx adds cooperative cancellation, and worker panics are
//     captured and re-panicked on the calling goroutine instead of killing
//     the process.
//   - core.ExtractCache memoizes timing-model extraction per (module
//     graph, options) with singleflight coalescing and an LRU bound
//     (configurable entry cap + byte-cost budget); ssta.DefaultFlow
//     installs one shared cache on the flow. sstad's built graphs and
//     quad designs share its one cache policy, internal/memo: one fill
//     per key, LRU-bounded completed entries, no cached errors, waits
//     that honor the caller's ctx, and at most GOMAXPROCS fills at once,
//     so a miss that finds every fill slot busy waits for one under its
//     own deadline.
//   - hier.Design caches its per-mode analysis prep (die partition, PCA,
//     per-instance replacement matrices) behind a geometry fingerprint, so
//     repeated analyses of one design — across modes, corners or batch
//     items — pay the eigendecomposition once. Next to the prep it keeps
//     the stitched top graph per mode (the paper's Fig. 5 stitch depends
//     on the design and its models, never on the operating scenario),
//     keyed on the prep plus a stitch fingerprint: nets with their wire
//     delays, primary IO, and each module graph's edge count and boundary
//     load/slew characterization. Design.Stitch and Design.AnalyzeCtx hand
//     every caller a fresh Result around the shared, read-only graph, so a
//     warm sweep does only per-scenario arithmetic; each scenario's walks
//     read the one shared delay bank and rescale every delay as they read
//     it, so no per-scenario bank exists. In-place edits to a module graph's
//     Edge.Delay forms are invisible to the fingerprints and need
//     Design.InvalidatePrep. Together the two cut the daemon's CPU per
//     request (cmd/sstaload medians, Intel Xeon with 2 vCPUs in a shared
//     KVM guest) from 6.95 to 2.38 ms on sweep-wide and from 10.4 to
//     3.53 ms on cluster-sweep, and a warm 8-scenario quad-c1355 sweep's
//     allocations from 4881 to 32 KiB.
//   - ssta.AnalyzeBatch fans flat and hierarchical analyses out across a
//     bounded pool with those caches shared, which is the one scheduling
//     path used by cmd/ssta, cmd/report, cmd/table1 and examples/corners.
//     AnalyzeBatchCtx threads a context through the whole stack — batch
//     items, hierarchical stitching, and the per-vertex propagation loops
//     — so cancellation and deadlines are honored mid-analysis.
//
// Parallel and cached runs produce results identical (within 1e-9, in
// practice bitwise) to the serial engine; see internal/hier's equivalence
// tests.
//
// # Serving (sstad)
//
// cmd/sstad wraps the engine in a daemon (internal/server): POST
// /v1/analyze analyzes a list of items synchronously under a per-request
// deadline, POST /v1/jobs queues the same body on a bounded async job
// queue (poll/cancel via GET/DELETE /v1/jobs/{id}), POST /v1/sweep
// evaluates MCMM scenarios, and /healthz and /metrics expose liveness,
// cache hit rates, queue depth and per-item latency. Every analysis runs
// on one path: the subject is resolved through the server's caches and
// its scenarios run through the sweep engine, an analyze item being the
// identity scenario, so sync, job, micro-batched and clustered answers
// agree. Admission is bounded by an analysis-slot semaphore and the
// fixed-depth job queue; request cancellation propagates down to
// individual graph vertices. See the internal/server package docs for the
// wire schema.
//
// # The arena hot path
//
// The propagation kernels run on flat storage: canon.Bank is a contiguous
// structure-of-arrays arena of canonical forms (stride dim+2), canon.View
// one form inside it, and the fused view kernels (AddViews,
// AddScaledViews, MaxViews, MinViews, VarCovViews, TightnessProbViews)
// allocate nothing. The package has one arithmetic per process: every
// kernel's coefficient body runs on the AVX2/FMA kernels where the CPU has
// them (chosen once at init; the purego build tag and other architectures
// run the generic loops), and the pointer-based kernels (MaxInto, MinInto,
// VarCov, TightnessProb) stage their operands into Views and call the View
// kernels, so View and *Form results are bit-identical by construction.
// The element-wise adds and scaled adds equal a scalar loop bit for bit; a
// scalar evaluation of Clark's equations agrees with MaxViews and MinViews
// at 1e-12. timing.Pass wraps a pooled per-graph arena so forward/backward
// passes — including the one-pass-per-input all-pairs scheme and the
// criticality engine's cutset evaluation — perform O(1) allocations per
// pass. Every pass, and every incremental cone sweep, runs through one
// walker in internal/timing: a level-ordered gather parameterized by
// direction (forward over fan-in, backward over fan-out) and by fold
// (canon.MaxViews or canon.MinViews), reading edge delays from the
// graph's flat delay bank — scaled per edge as they are read, for a
// scenario sweep — or from a caller's bank. Each vertex folds
// its contributions in a fixed order, so results never depend on visit
// order. timing.Build lays a graph out in walk order: vertex ids follow
// the level waves and edge ids follow each vertex's gather order, so a
// forward pass streams through the delay bank and finds its fan-in
// arrivals a few waves back (vertex ids are not circuit node ids; the
// answers are bit-identical to a node-order graph's). A built graph, and
// one restored from a snapshot, stores each edge delay once: the bank is
// the storage, every Edge.Delay a form aliasing its slot, and edges,
// forms and adjacency lists live in a handful of slabs, so a cached
// graph holds no second copy and few heap objects. See README.md
// ("Performance") for measurements.
//
// # Incremental analysis: the edit and invalidation model
//
// The paper's ECO argument — change one module, re-extract one model,
// restitch — extends down to single edits. timing.Graph is mutable through
// an edit API (SetEdgeDelay, ScaleEdgeDelay, SetEdgeNominal, AddEdgeLive,
// RemoveEdge, RetargetIO) with a layered invalidation contract:
//
//   - The flat edge-delay bank is never allowed to go stale: delay edits
//     patch the affected slot in place, edge additions invalidate the bank
//     structurally (capacity mismatch forces a rebuild), and removed edges
//     leave unreferenced slots behind tombstones so edge indices stay
//     stable. A bank that the forms alias (a built or restored graph's)
//     is immutable: the first delay edit patches a private copy, so the
//     old forms, and clones sharing them, keep their values.
//   - The cached topological order survives every edit that provably keeps
//     it valid (delay edits, removals, order-respecting additions). An
//     order-violating addition — the one edit that would reorder Clark-max
//     operands at vertices far outside its cone — conservatively marks the
//     whole graph dirty instead.
//   - Every edit records dirty seed vertices. timing.Incremental owns
//     persistent arrival/required banks and absorbs the seeds in Update,
//     re-propagating only the affected fan-out/fan-in cones in an
//     operation order that reproduces a full pass bit for bit, with early
//     termination once a recomputed form matches the stored one at 1e-12.
//
// One level up, hier.Session keeps the analysis prep in per-instance
// units: swapping or re-characterizing one instance recomputes only that
// instance's replacement matrix and design-space rewrite (edges and
// register constraints), then recommits the top graph through the same
// commit step Analyze and Stitch use, so a session top equals a fresh
// Stitch of its design bit for bit (models come through the shared
// ExtractCache). A failed swap leaves the previous top serving; there is
// no half-committed state to recover from. ssta.Session is the public stateful facade over both, and
// internal/server exposes it as HTTP sessions (POST /v1/sessions, POST
// /v1/sessions/{id}/edits) with idle-TTL eviction — clients pay one full
// analysis per session and incremental cost per edit batch. See README.md
// ("Incremental analysis & sessions").
//
// # Multi-corner/multi-scenario sweeps: the scenario model
//
// The MCMM engine (internal/scenario, surfaced as ssta.SweepAnalyze and
// POST /v1/sweep) evaluates many named operating scenarios — timing
// derates, per-edge-class scale factors, sigma multipliers on the
// Glob/Loc/Rand variation components, swapped module variants — against
// one shared preparation. The invalidation rule falls out of linearity:
// every rescale knob is linear per canonical-form component, so it shares
// everything (partition, PCA, replacement matrices, stitched topology,
// flat delay bank) and costs one propagation pass per scenario whose
// gather scales each shared edge delay as it reads it
// (canon.AddScaledViews, bit-identical to scaling first and adding
// after); only a module swap changes
// structure and pays a private stitch. Reports carry per-scenario
// mean/sigma/quantiles, the cross-scenario worst-case envelope
// (component-wise max over statistics — scenarios are alternative worlds,
// not jointly distributed forms) and a divergence ranking against the
// baseline scenario. Sessions keep sweeps live across edits: SetSweep
// maintains one transformed clone + incremental state per scenario, and
// every edit batch is mirrored into the clones and re-propagated through
// dirty cones only. See README.md ("Multi-scenario sweeps").
//
// # Sequential timing: min propagation and the clock-scenario model
//
// Sequential circuits (DFF lines in .bench inputs, circuit.Clocked /
// GenerateClocked wrappers, "clocked" items over HTTP) get statistical
// setup/hold analysis on top of the same machinery. Two model choices
// keep it composable:
//
//   - Min propagation is the exact dual of max. Hold analysis needs
//     earliest arrivals, so timing.Pass grows ArrivalsMin — a
//     shortest-path pass on canon.MinViews, the Clark dual of MaxViews
//     (min(A,B) = -max(-A,-B), fused into one moment-matched kernel),
//     run by the same walker as the latest-arrival pass with the fold
//     switched.
//   - Clock knobs are slack-side, not delay-side. A scenario's
//     ClockPeriodPS/ClockSkewPS/ClockJitterPS enter only the setup/hold
//     constraint forms (period and skew shift the mean; jitter adds an
//     independent random component), never the edge-delay bank — so
//     clock-only scenarios keep Scenario.Identity() and share the base
//     prep AND the base arrival banks, paying just one slack assembly
//     per register. Setup slack is (T - skew) - setup - latest(D); hold
//     slack is earliest(D) - hold - skew; worst-case slacks are
//     statistical minima via the same min-Clark dual, so slack
//     distributions stay correlated with the parameter space exactly
//     like delays.
//
// timing.Graph.AnalyzeCtx is the engine entry (one late walk for delay
// and setup, one early walk for hold); batch results, sweeps, sessions,
// /v1/analyze ("setup"/"hold" views) and /v1/sweep expose it,
// and mc.ValidateSequential is the Monte-Carlo oracle for both slack
// kinds. See README.md ("Sequential timing & setup/hold").
//
// # Testing strategy
//
// Verification is layered (README.md "Testing strategy" has the full
// map): golden/equivalence tests pin every optimized path to a reference
// twin (parallel==serial, cached==cold, views==forms at 1e-12,
// incremental==from-scratch, sweep==independent analyses, HTTP==direct at
// 1e-9); native fuzz targets with committed seed corpora harden the edit
// engine (timing.FuzzGraphEdits: byte-coded edit scripts asserting
// incremental==full-pass equivalence and no panics) and the netlist
// reader (circuit.FuzzNetlistParse: accepted inputs must validate and
// round-trip); and the Monte-Carlo differential oracle (mc.Validate)
// diffs analytic mean/sigma against empirical sampling — a small-sample
// smoke in tier-1, an 8000-sample tier-2 pass including a derated sweep
// scenario behind testing.Short.
package repro
