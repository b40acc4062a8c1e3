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

// scaleForm is the pointer-form image of one delay under a Scale: the form
// scaled by k as a whole and its Glob, Loc and Rand blocks further by the
// block factors — the products the scaled gather forms as it reads an edge.
func scaleForm(space canon.Space, f *canon.Form, k, glob, loc, rand float64) *canon.Form {
	out := space.NewForm()
	out.Nominal = f.Nominal * k
	kg := k * glob
	for i, v := range f.Glob {
		out.Glob[i] = v * kg
	}
	kl := k * loc
	for i, v := range f.Loc {
		out.Loc[i] = v * kl
	}
	kr := k * rand
	if kr < 0 {
		kr = -kr
	}
	out.Rand = f.Rand * kr
	return out
}

// testScale returns a scenario-style rescale of g: per-edge factors that
// vary across edges, every third exactly 1, with per-block sigma
// multipliers.
func testScale(g *Graph) *Scale {
	s := &Scale{Edge: make([]float64, len(g.Edges)), Glob: 1.2, Loc: 0.9, Rand: 1.1}
	for ei := range s.Edge {
		s.Edge[ei] = 1
		if ei%3 != 0 {
			s.Edge[ei] = 1.07 + 0.01*float64(ei%5)
		}
	}
	return s
}

// scaledGraph materializes s on a clone of g, edge by edge over pointer
// forms: the graph the scaled walks must reproduce bit for bit.
func scaledGraph(g *Graph, s *Scale) *Graph {
	sg := g.Clone()
	for ei := range sg.Edges {
		e := &sg.Edges[ei]
		e.Delay = scaleForm(sg.Space, e.Delay, s.Edge[ei], s.Glob, s.Loc, s.Rand)
	}
	sg.InvalidateDelays()
	return sg
}

// TestPassMatchesReference pins every Pass entry point to referencePass bit
// for bit: reach mask and every form word, on combinational benchmark graphs
// and a clocked one, with the graph's own delays, with a substituted bank,
// and with both walks rescaling the delays as they read them.
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
			scale := testScale(g)
			sg := scaledGraph(g, scale)
			own := func(ei int32) *canon.Form { return g.Edges[ei].Delay }
			over := func(ei int32) *canon.Form { return sg.Edges[ei].Delay }
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
				// The late and early walks over the rescaled delays, and
				// the same delays handed over as a substituted bank.
				{"ArrivalsOver", func(p *Pass) error { return p.arrivalsScaled(scale, canon.MaxViews, src) }, src, false, canon.MaxInto, over},
				{"ArrivalsMinOver", func(p *Pass) error { return p.arrivalsScaled(scale, canon.MinViews, src) }, src, false, canon.MinInto, over},
				{"ArrivalsOverBank", func(p *Pass) error { return p.ArrivalsOver(sg.EdgeDelays(), src...) }, src, false, canon.MaxInto, over},
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
