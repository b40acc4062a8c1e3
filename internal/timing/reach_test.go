package timing

import (
	"fmt"
	"testing"

	"repro/internal/canon"
)

// wideGraph builds a graph with n parallel input->mid->output lanes plus
// one extra "hub" input feeding every lane's mid vertex, so reachability
// sets span multiple 64-bit words and differ per vertex.
//
// Layout: vertices [0,n) inputs, [n,2n) mids, [2n,3n) outputs, 3n = hub.
func wideGraph(t *testing.T, n int) *Graph {
	t.Helper()
	space := canon.Space{Globals: 1, Components: 1}
	g := NewGraph(space, 3*n+1, nil)
	hub := 3 * n
	ins := make([]int, 0, n+1)
	outs := make([]int, 0, n)
	names := func(prefix string, k int) string { return fmt.Sprintf("%s%d", prefix, k) }
	var inNames, outNames []string
	for i := 0; i < n; i++ {
		mustEdge(t, g, i, n+i, space.Const(1))
		mustEdge(t, g, n+i, 2*n+i, space.Const(1))
		mustEdge(t, g, hub, n+i, space.Const(2))
		ins = append(ins, i)
		outs = append(outs, 2*n+i)
		inNames = append(inNames, names("in", i))
		outNames = append(outNames, names("out", i))
	}
	ins = append(ins, hub)
	inNames = append(inNames, "hub")
	if err := g.SetIO(ins, outs, inNames, outNames); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustEdge(t *testing.T, g *Graph, from, to int, f *canon.Form) {
	t.Helper()
	if _, err := g.AddEdge(from, to, f, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func bit(w []uint64, i int) bool { return w[i/64]&(1<<uint(i%64)) != 0 }

// TestReachabilityMultiWord exercises the bitset propagation with >64
// inputs and outputs, so every set spans two words.
func TestReachabilityMultiWord(t *testing.T) {
	const n = 70 // 71 inputs, 70 outputs: two uint64 words each
	g := wideGraph(t, n)
	rs, err := g.Reachability()
	if err != nil {
		t.Fatal(err)
	}
	if rs.WIn != 2 || rs.WOut != 2 {
		t.Fatalf("want 2-word bitsets, got %d/%d", rs.WIn, rs.WOut)
	}
	hubIdx := n // index of "hub" in g.Inputs
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Lane input i reaches exactly lane i's mid and output.
			wantFwd := i == j
			if got := bit(rs.FromInput(n+j), i); got != wantFwd {
				t.Fatalf("fromInput[mid %d] bit %d = %v, want %v", j, i, got, wantFwd)
			}
			if got := bit(rs.FromInput(2*n+j), i); got != wantFwd {
				t.Fatalf("fromInput[out %d] bit %d = %v, want %v", j, i, got, wantFwd)
			}
			// Output j is reached from vertex-side: mid/out of lane j only.
			if got := bit(rs.ToOutput(n+i), j); got != wantFwd {
				t.Fatalf("toOutput[mid %d] bit %d = %v, want %v", i, j, got, wantFwd)
			}
		}
		// The hub (input index n, in the second word) reaches every lane.
		if !bit(rs.FromInput(n+i), hubIdx) || !bit(rs.FromInput(2*n+i), hubIdx) {
			t.Fatalf("hub bit missing on lane %d", i)
		}
		// Every lane input sees exactly its own output (both words checked).
		if !bit(rs.ToOutput(i), i) {
			t.Fatalf("toOutput[in %d] missing own bit", i)
		}
		for j := 0; j < n; j++ {
			if j != i && bit(rs.ToOutput(i), j) {
				t.Fatalf("toOutput[in %d] has spurious bit %d", i, j)
			}
		}
	}
	// The hub reaches all outputs, including those with index >= 64.
	for j := 0; j < n; j++ {
		if !bit(rs.ToOutput(3*n), j) {
			t.Fatalf("toOutput[hub] missing bit %d", j)
		}
	}
}

// TestDelayToOutputUnreachableVertices: vertices that cannot reach the
// queried output must come back nil (pointer API) / unreached (pass API).
func TestDelayToOutputUnreachableVertices(t *testing.T) {
	const n = 3
	g := wideGraph(t, n)
	out0 := g.Outputs[0] // lane 0's output
	req, err := passRequired(g, out0)
	if err != nil {
		t.Fatal(err)
	}
	// Reaching: lane 0 (in, mid, out) and the hub.
	for _, v := range []int{0, n, 2 * n, 3 * n} {
		if req[v] == nil {
			t.Fatalf("vertex %d should reach output %d", v, out0)
		}
	}
	// Every other lane's vertices cannot.
	for lane := 1; lane < n; lane++ {
		for _, v := range []int{lane, n + lane, 2*n + lane} {
			if req[v] != nil {
				t.Fatalf("vertex %d must NOT reach output %d, got %v", v, out0, req[v])
			}
		}
	}
	// Pass-level view agrees.
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Required(out0); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVerts; v++ {
		if (req[v] != nil) != p.Reached(v) {
			t.Fatalf("vertex %d: Forms/Reached disagree", v)
		}
		if f := p.Form(v); (f == nil) == (req[v] != nil) {
			t.Fatalf("vertex %d: Form nil-ness disagrees", v)
		}
	}
	// Delay from hub to out0: hub->mid0 (2) + mid0->out0 (1).
	if got := req[3*n].Nominal; got != 3 {
		t.Fatalf("hub delay-to-output nominal %g, want 3", got)
	}
}
