package ssta

import (
	"context"
	"math"
	"testing"

	"repro/internal/canon"
)

// sameFormBits reports whether two forms, nil included, are equal bit for
// bit.
func sameFormBits(a, b *Form) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	words := func(f *Form) []uint64 {
		w := []uint64{math.Float64bits(f.Nominal), math.Float64bits(f.Rand)}
		for _, x := range append(append([]float64(nil), f.Glob...), f.Loc...) {
			w = append(w, math.Float64bits(x))
		}
		return w
	}
	wa, wb := words(a), words(b)
	if len(a.Glob) != len(b.Glob) || len(wa) != len(wb) {
		return false
	}
	for i := range wa {
		if wa[i] != wb[i] {
			return false
		}
	}
	return true
}

// TestQuadTopFrontierMatchesFullArena: on the stitched top graph of a flat
// and of a clocked quad design, the frontier-arena analyses (AnalyzeCtx's
// per-output late arrivals and MinDelay's early fold) equal full-arena
// passes bit for bit, and AnalyzeWorstCtx's worst slacks equal
// AnalyzeCtx's.
func TestQuadTopFrontierMatchesFullArena(t *testing.T) {
	ctx := context.Background()
	flow := DefaultFlow()
	comb, err := ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	clocked, err := Clocked(comb)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Circuit{comb, clocked} {
		g, plan, err := flow.Graph(c)
		if err != nil {
			t.Fatal(err)
		}
		model, err := flow.Extract(g, ExtractOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModule("m4", model, plan)
		if err != nil {
			t.Fatal(err)
		}
		d, err := flow.QuadDesign("quad", mod)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.AnalyzeCtx(ctx, FullCorrelation, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		top := res.Graph
		t.Logf("%s top: %d vertices, %d outputs, %d registers", c.Name, top.NumVerts, len(top.Outputs), len(top.Registers))
		outs := make([]*Form, len(top.Outputs))
		_, seq, err := top.AnalyzeCtx(ctx, nil, ClockSpec{}, outs)
		if err != nil {
			t.Fatal(err)
		}
		if top.Sequential() != (seq != nil) {
			t.Fatalf("%s top: sequential %v, slacks %v", c.Name, top.Sequential(), seq != nil)
		}
		late, early := top.AcquirePass(), top.AcquirePass()
		if err := late.Arrivals(top.LaunchSources()...); err != nil {
			t.Fatal(err)
		}
		if err := early.ArrivalsMin(top.LaunchSources()...); err != nil {
			t.Fatal(err)
		}
		acc, first := early.Scratch(), true
		for k, o := range top.Outputs {
			if !sameFormBits(outs[k], late.Form(o)) {
				t.Fatalf("%s top: output %d differs from the full arena", c.Name, k)
			}
			if early.Reached(o) {
				if first {
					canon.CopyView(acc, early.At(o))
					first = false
				} else {
					canon.MinViews(acc, acc, early.At(o))
				}
			}
		}
		wantMin := acc.Form(top.Space)
		late.Release()
		early.Release()
		if got, err := top.MinDelay(); err != nil || !sameFormBits(got, wantMin) {
			t.Fatalf("%s top: MinDelay %v (err %v) differs from the full arena %v", c.Name, got, err, wantMin)
		}
		if seq != nil {
			_, worst, err := top.AnalyzeWorstCtx(ctx, nil, ClockSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameFormBits(worst.WorstSetup, seq.WorstSetup) || !sameFormBits(worst.WorstHold, seq.WorstHold) {
				t.Fatalf("%s top: worst-only slacks differ from AnalyzeCtx's", c.Name)
			}
		}
	}
}
