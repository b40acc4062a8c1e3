package ssta

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/timing"
)

// ParseNameList splits a comma-separated circuit list, trimming whitespace
// and dropping empty entries. The cmd harnesses share it for their
// -gen/-circuits flags; an empty result means no circuit was named.
func ParseNameList(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// BatchItem describes one analysis in a batch. Exactly one input must be
// set: a benchmark name to generate (Bench, with Seed), an explicit
// netlist (Circuit), a prebuilt timing graph (Graph), or a hierarchical
// design (Design). Flat items may additionally request cached timing-model
// extraction.
type BatchItem struct {
	// Name labels the result; defaults to the input's own name.
	Name string

	// Bench generates a topology-matched ISCAS85-like benchmark.
	Bench string
	// Seed is the generator seed for Bench items.
	Seed int64
	// Circuit analyzes an explicit netlist.
	Circuit *Circuit
	// Graph analyzes a prebuilt timing graph.
	Graph *Graph
	// Design runs a hierarchical analysis in the given Mode.
	Design *Design
	// Mode selects the correlation treatment for Design items.
	Mode Mode

	// Extract additionally runs (cached) timing-model extraction on the
	// flat graph of the item.
	Extract bool
	// ExtractOptions controls the extraction when Extract is set.
	ExtractOptions ExtractOptions
}

// BatchResult is the outcome of one BatchItem. Err is set when the item
// failed; the remaining fields are populated as far as the pipeline got.
type BatchResult struct {
	Name string
	// Graph is the flat timing graph that was analyzed (nil for Design
	// items; freshly built for Bench/Circuit items).
	Graph *Graph
	// Plan is the placement of a freshly built graph (Bench/Circuit items).
	Plan *Plan
	// Delay is the statistical circuit delay (all items).
	Delay *Form
	// Model is the extracted timing model when Extract was requested.
	Model *Model
	// Hier is the full hierarchical result for Design items.
	Hier *HierResult
	// Seq is the statistical setup/hold slack summary when the analyzed
	// graph (or stitched design) is sequential, computed under the default
	// clock (see timing.DefaultClockPeriodPS); nil for combinational items.
	Seq *SeqResult
	// Elapsed is the wall-clock time of this item.
	Elapsed time.Duration
	Err     error
}

// BatchOptions tunes the batch scheduler.
type BatchOptions struct {
	// Workers bounds how many items run concurrently (<=0: GOMAXPROCS).
	Workers int
	// ItemWorkers bounds the goroutines inside one hierarchical analysis
	// (<=0: 1, i.e. serial per item). Total concurrency is roughly
	// Workers x ItemWorkers; keep ItemWorkers at 1 for wide batches.
	ItemWorkers int
}

// AnalyzeBatch fans the items out across a bounded worker pool with the
// flow's shared extraction cache and the per-design prep caches. Results
// are returned in item order; per-item failures land in BatchResult.Err
// and never abort the rest of the batch. Items must not share a mutable
// Design with outside writers while the batch runs.
func (f *Flow) AnalyzeBatch(items []BatchItem, opt BatchOptions) []BatchResult {
	return f.AnalyzeBatchCtx(context.Background(), items, opt)
}

// AnalyzeBatchCtx is AnalyzeBatch with cooperative cancellation. Once ctx
// is done, items that have not started report ctx.Err() in their
// BatchResult.Err, in-flight items observe the cancellation between
// vertices (flat propagation) or pool tasks (hierarchical analysis), and
// already-completed items keep their results. The call itself still
// returns a result per item, never an error.
func (f *Flow) AnalyzeBatchCtx(ctx context.Context, items []BatchItem, opt BatchOptions) []BatchResult {
	results := make([]BatchResult, len(items))
	itemWorkers := opt.ItemWorkers
	if itemWorkers <= 0 {
		itemWorkers = 1
	}
	// ParallelFor only fails when a task errors; runItem reports all
	// failures — including cancellation and recovered panics — through
	// BatchResult.Err, so the error here is always nil and every index is
	// visited even after ctx fires.
	_ = timing.ParallelFor(len(items), opt.Workers, func(k int) error {
		results[k] = f.runItem(ctx, items[k], itemWorkers)
		return nil
	})
	return results
}

// AnalyzeBatch runs the batch on DefaultFlow.
func AnalyzeBatch(items []BatchItem, opt BatchOptions) []BatchResult {
	return DefaultFlow().AnalyzeBatch(items, opt)
}

// AnalyzeBatchCtx runs the batch on DefaultFlow with cancellation.
func AnalyzeBatchCtx(ctx context.Context, items []BatchItem, opt BatchOptions) []BatchResult {
	return DefaultFlow().AnalyzeBatchCtx(ctx, items, opt)
}

// validateItemInput enforces the BatchItem contract that exactly one input
// is set, returning an error naming every populated input on ambiguity.
func validateItemInput(item BatchItem) error {
	var set []string
	if item.Design != nil {
		set = append(set, "Design")
	}
	if item.Graph != nil {
		set = append(set, "Graph")
	}
	if item.Circuit != nil {
		set = append(set, "Circuit")
	}
	if item.Bench != "" {
		set = append(set, "Bench")
	}
	switch len(set) {
	case 0:
		return errors.New("ssta: batch item has no input (set Bench, Circuit, Graph or Design)")
	case 1:
		return nil
	default:
		return fmt.Errorf("ssta: batch item sets %d inputs (%s); exactly one of Bench, Circuit, Graph or Design must be set",
			len(set), strings.Join(set, ", "))
	}
}

func (f *Flow) runItem(ctx context.Context, item BatchItem, itemWorkers int) (res BatchResult) {
	start := time.Now()
	res = BatchResult{Name: item.Name}
	defer func() {
		// Panic isolation: one faulting item must not take down the batch
		// (or, in the serving layer, the process). ParallelFor converts
		// worker panics into a *timing.PanicError re-panicked on this
		// goroutine; anything else is a direct panic out of the item's own
		// serial code path.
		if r := recover(); r != nil {
			if pe, ok := r.(*timing.PanicError); ok {
				res.Err = fmt.Errorf("ssta: %s: %w", res.Name, pe)
			} else {
				res.Err = fmt.Errorf("ssta: %s: panic: %v\n%s", res.Name, r, debug.Stack())
			}
		}
		res.Elapsed = time.Since(start)
	}()

	if err := validateItemInput(item); err != nil {
		res.Err = err
		return res
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}

	switch {
	case item.Design != nil:
		if res.Name == "" {
			res.Name = item.Design.Name
		}
		hr, err := item.Design.AnalyzeCtx(ctx, item.Mode, AnalyzeOptions{Workers: itemWorkers})
		if err != nil {
			res.Err = err
			return res
		}
		res.Hier = hr
		res.Delay = hr.Delay
		res.Seq = hr.Sequential
		return res

	case item.Graph != nil:
		res.Graph = item.Graph

	case item.Circuit != nil:
		if res.Name == "" {
			res.Name = item.Circuit.Name
		}
		g, plan, err := f.Graph(item.Circuit)
		if err != nil {
			res.Err = err
			return res
		}
		res.Graph, res.Plan = g, plan

	case item.Bench != "":
		if res.Name == "" {
			res.Name = item.Bench
		}
		g, plan, err := f.BenchGraph(item.Bench, item.Seed)
		if err != nil {
			res.Err = err
			return res
		}
		res.Graph, res.Plan = g, plan
	}

	// One late and (on sequential graphs) one early pass in the graph's
	// pooled propagation arenas: the circuit delay, plus worst setup/hold
	// slack under the default clock for sequential graphs — per-scenario
	// clocks belong to the sweep surface.
	delay, seq, err := res.Graph.AnalyzeCtx(ctx, nil, ClockSpec{}, nil)
	if err != nil {
		res.Err = fmt.Errorf("ssta: %s: %w", res.Name, err)
		return res
	}
	res.Delay, res.Seq = delay, seq

	if item.Extract {
		model, err := f.ExtractCtx(ctx, res.Graph, item.ExtractOptions)
		if err != nil {
			res.Err = fmt.Errorf("ssta: %s: extract: %w", res.Name, err)
			return res
		}
		res.Model = model
	}
	return res
}
