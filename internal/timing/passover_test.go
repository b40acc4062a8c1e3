package timing

import (
	"testing"

	"repro/internal/canon"
)

// TestArrivalsOverMatchesOwnBank: propagating over the graph's own delay
// bank through the substituted-bank entry point is bit-identical to a
// plain pass, and a rescaled bank reproduces a graph whose edges were
// explicitly scaled.
func TestArrivalsOverMatchesOwnBank(t *testing.T) {
	g := buildC17(t)
	ref := g.AcquirePass()
	defer ref.Release()
	if err := ref.Arrivals(g.Inputs...); err != nil {
		t.Fatal(err)
	}
	p := g.AcquirePass()
	defer p.Release()
	if err := p.ArrivalsOver(g.EdgeDelays(), g.Inputs...); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVerts; v++ {
		if p.Reached(v) != ref.Reached(v) {
			t.Fatalf("vertex %d: reach diverged", v)
		}
		if p.Reached(v) && formDiff(p.Form(v), ref.Form(v)) > passTol {
			t.Fatalf("vertex %d: ArrivalsOver differs from Arrivals by %g", v, formDiff(p.Form(v), ref.Form(v)))
		}
	}

	// Scaled bank == explicitly scaled graph.
	const k = 1.25
	scaled := canon.NewBank(g.Space, len(g.Edges))
	for ei := range g.Edges {
		scaled.View(ei).LoadForm(scaleForm(g.Space, g.Edges[ei].Delay, k, 1, 1, 1))
	}
	sg := g.Clone()
	for ei := range sg.Edges {
		if err := sg.ScaleEdgeDelay(ei, k); err != nil {
			t.Fatal(err)
		}
	}
	want := sg.AcquirePass()
	defer want.Release()
	if err := want.Arrivals(sg.Inputs...); err != nil {
		t.Fatal(err)
	}
	if err := p.ArrivalsOver(scaled, g.Inputs...); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVerts; v++ {
		if p.Reached(v) && formDiff(p.Form(v), want.Form(v)) > 1e-9 {
			t.Fatalf("vertex %d: scaled-bank pass differs from scaled graph by %g", v, formDiff(p.Form(v), want.Form(v)))
		}
	}
}

func TestArrivalsOverRejectsBadBank(t *testing.T) {
	g := buildC17(t)
	p := g.AcquirePass()
	defer p.Release()
	if err := p.ArrivalsOver(nil, g.Inputs...); err == nil {
		t.Fatal("nil bank accepted")
	}
	short := canon.NewBank(g.Space, len(g.Edges)-1)
	if err := p.ArrivalsOver(short, g.Inputs...); err == nil {
		t.Fatal("undersized bank accepted")
	}
}
