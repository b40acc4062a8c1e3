package timing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"

	"repro/internal/canon"
)

// Digest returns the hex sha256 of the graph's timing content: the form
// space, vertex count, every edge (ends, tombstone and delay form), the
// ports with their names, the clock roots and every register with its
// constraint forms. Two graphs with equal digests answer every propagation
// identically; a model extracted from one graph names its source this way
// (core.Model.Source). The digest is computed afresh on every call, so
// callers hash once per graph they need to identify, not per request.
func (g *Graph) Digest() string {
	h := sha256.New()
	// Writes to a hash never fail, and every value below has a fixed size.
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	num := func(x int) { put(int64(x)) }
	str := func(s string) { num(len(s)); io.WriteString(h, s) }
	ints := func(xs []int) {
		num(len(xs))
		for _, x := range xs {
			num(x)
		}
	}
	strs := func(ss []string) {
		num(len(ss))
		for _, s := range ss {
			str(s)
		}
	}
	form := func(f *canon.Form) {
		if f == nil {
			num(-1)
			return
		}
		num(len(f.Glob))
		num(len(f.Loc))
		put(f.Nominal)
		put(f.Glob)
		put(f.Loc)
		put(f.Rand)
	}
	num(g.Space.Globals)
	num(g.Space.Components)
	num(g.NumVerts)
	num(len(g.Edges))
	for i := range g.Edges {
		e := &g.Edges[i]
		num(e.From)
		num(e.To)
		put(e.Removed)
		form(e.Delay)
	}
	ints(g.Inputs)
	ints(g.Outputs)
	strs(g.InputNames)
	strs(g.OutputNames)
	ints(g.ClockRoots)
	num(len(g.Registers))
	for i := range g.Registers {
		r := &g.Registers[i]
		str(r.Name)
		num(r.Q)
		num(r.D)
		num(r.ClkEdge)
		form(r.Setup)
		form(r.Hold)
	}
	return hex.EncodeToString(h.Sum(nil))
}
