package timing

import (
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/circuit"
)

// referencePass writes the propagation rule out the plain way, over pointer
// forms: forward, a push in topological order, which delivers every
// vertex's contributions in source topological order; backward, a pull in
// reverse topological order over the fan-out in adjacency order. Seeds start
// at the zero constant and fold their contributions on top of it. Vertices
// the seeds never reach are nil.
func referencePass(t *testing.T, g *Graph, seeds []int, back bool, fold func(dst, a, b *canon.Form), delay func(ei int32) *canon.Form) []*canon.Form {
	t.Helper()
	order, err := g.Order()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*canon.Form, g.NumVerts)
	for _, s := range seeds {
		out[s] = g.Space.Const(0)
	}
	into := func(u int, c *canon.Form) {
		if out[u] == nil {
			out[u] = c
		} else {
			fold(out[u], out[u], c)
		}
	}
	for i := range order {
		if !back {
			v := order[i]
			for _, ei := range g.Out[v] {
				if out[v] == nil {
					break
				}
				into(g.Edges[ei].To, canon.Add(out[v], delay(ei)))
			}
			continue
		}
		v := order[len(order)-1-i]
		for _, ei := range g.Out[v] {
			if to := g.Edges[ei].To; out[to] != nil {
				into(v, canon.Add(out[to], delay(ei)))
			}
		}
	}
	return out
}

// TestPassMatchesReference pins every Pass entry point to referencePass bit
// for bit: reach mask and every form word, on combinational benchmark graphs
// and a clocked one, with the graph's own delays and with a rescaled bank.
func TestPassMatchesReference(t *testing.T) {
	graphs := map[string]func(t *testing.T) *Graph{
		"c432": func(t *testing.T) *Graph { return buildBench(t, "c432", 7) },
		"c880": func(t *testing.T) *Graph { return buildBench(t, "c880", 7) },
		"clocked": func(t *testing.T) *Graph {
			c, err := circuit.GenerateClocked(circuit.TopoSpec{
				Name: "walkref", PIs: 12, POs: 8, Gates: 160, Edges: 330, Depth: 12,
			}, 42)
			if err != nil {
				t.Fatal(err)
			}
			return buildSeq(t, c)
		},
	}
	if !testing.Short() {
		graphs["c7552"] = func(t *testing.T) *Graph { return buildBench(t, "c7552", 7) }
	}
	for name, build := range graphs {
		t.Run(name, func(t *testing.T) {
			g := build(t)
			scaled := canon.NewBank(g.Space, len(g.Edges))
			for ei := range g.Edges {
				canon.ScalePartsView(scaled.View(ei), g.EdgeDelays().View(ei), g.Space.Globals, 1.1, 0.9, 1.2, 1.05)
			}
			own := func(ei int32) *canon.Form { return g.Edges[ei].Delay }
			over := func(ei int32) *canon.Form { return scaled.View(int(ei)).Form(g.Space) }
			src, outs := g.LaunchSources(), g.Outputs
			cases := []struct {
				name  string
				run   func(p *Pass) error
				seeds []int
				back  bool
				fold  func(dst, a, b *canon.Form)
				delay func(ei int32) *canon.Form
			}{
				{"Arrivals", func(p *Pass) error { return p.Arrivals(src...) }, src, false, canon.MaxInto, own},
				{"ArrivalsMin", func(p *Pass) error { return p.ArrivalsMin(src...) }, src, false, canon.MinInto, own},
				{"Required", func(p *Pass) error { return p.Required(outs...) }, outs, true, canon.MaxInto, own},
				{"ArrivalsOver", func(p *Pass) error { return p.ArrivalsOver(scaled, src...) }, src, false, canon.MaxInto, over},
				{"ArrivalsMinOver", func(p *Pass) error { return p.ArrivalsMinOver(scaled, src...) }, src, false, canon.MinInto, over},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					p := g.AcquirePass()
					defer p.Release()
					if err := tc.run(p); err != nil {
						t.Fatal(err)
					}
					want := referencePass(t, g, tc.seeds, tc.back, tc.fold, tc.delay)
					wv := canon.View(make([]float64, g.Space.Stride()))
					reached := 0
					for v, w := range want {
						if p.Reached(v) != (w != nil) {
							t.Fatalf("vertex %d: reached %v, reference %v", v, p.Reached(v), w != nil)
						}
						if w == nil {
							continue
						}
						reached++
						wv.LoadForm(w)
						for k, x := range p.At(v) {
							if math.Float64bits(x) != math.Float64bits(wv[k]) {
								t.Fatalf("vertex %d word %d: %g, reference %g (bit-identity violated)", v, k, x, wv[k])
							}
						}
					}
					if reached < 2 {
						t.Fatalf("pass reached %d vertices", reached)
					}
				})
			}
		})
	}
}
