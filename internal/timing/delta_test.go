package timing

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestAppendDeltaPatchesBaseToLive: a delta against a marked base carries
// exactly the slots that differ from it, and patching it into the base's
// snapshot gives the live graph's snapshot delays.
func TestAppendDeltaPatchesBaseToLive(t *testing.T) {
	g := snapTestGraph(t)
	if _, ok := g.AppendDelta(nil); ok {
		t.Fatal("delta captured with no base marked")
	}
	g.MarkBase()
	base := g.Snapshot()
	if d, ok := g.AppendDelta(nil); !ok || len(d) != 0 {
		t.Fatalf("fresh base: delta of %d bytes, ok %v; want empty", len(d), ok)
	}
	rec := deltaIndexBytes + 8*g.Space.Stride()
	// Edge 0 is edited and undone bit for bit, edge 4 scaled, edge 2
	// re-nominaled twice.
	for _, step := range []func() error{
		func() error { return g.ScaleEdgeDelay(0, 2) },
		func() error { return g.ScaleEdgeDelay(4, 4) },
		func() error { return g.SetEdgeNominal(2, 3.5) },
		func() error { return g.ScaleEdgeDelay(0, 0.5) },
		func() error { return g.SetEdgeNominal(2, 1.25) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	d, ok := g.AppendDelta(nil)
	if !ok || len(d) != 2*rec {
		t.Fatalf("delta of %d bytes, ok %v; want 2 slots of %d", len(d), ok, rec)
	}
	if e0, e1 := binary.LittleEndian.Uint32(d), binary.LittleEndian.Uint32(d[rec:]); e0 != 2 || e1 != 4 {
		t.Fatalf("delta edges %d, %d; want 2, 4", e0, e1)
	}
	patched, err := base.PatchDelays(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(patched.Delays, g.Snapshot().Delays) {
		t.Fatal("patched base delays differ from the live graph's")
	}
	if bytes.Equal(base.Delays, patched.Delays) {
		t.Fatal("PatchDelays modified the base snapshot in place")
	}
	// Undoing the rest empties the delta again.
	if err := g.ScaleEdgeDelay(4, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeNominal(2, 12); err != nil { // snapTestGraph built edge 2 with nominal 12
		t.Fatal(err)
	}
	if d, ok := g.AppendDelta(nil); !ok || len(d) != 0 {
		t.Fatalf("all edits undone: delta of %d bytes, ok %v; want empty", len(d), ok)
	}

	// A change a delta cannot carry refuses the capture until the next mark.
	for name, structural := range map[string]func(*Graph) error{
		"remove": func(g *Graph) error { return g.RemoveEdge(0) },
		"add": func(g *Graph) error {
			_, err := g.AddEdgeLive(0, 5, g.Space.Const(1), nil, 0)
			return err
		},
		"retarget": func(g *Graph) error { return g.RetargetIO([]int{0}, []int{5}, []string{"a"}, []string{"y"}) },
	} {
		h := snapTestGraph(t)
		h.MarkBase()
		if err := structural(h); err != nil {
			t.Fatal(err)
		}
		if _, ok := h.AppendDelta(nil); ok {
			t.Fatalf("%s: delta captured across a structural edit", name)
		}
		h.MarkBase()
		if _, ok := h.AppendDelta(nil); !ok {
			t.Fatalf("%s: no delta after a new mark", name)
		}
	}
}

// TestPatchDelaysChecksFraming: records that are not whole, out of order,
// repeated or outside the edge range are refused; values are left to
// FromSnapshot, which refuses a NaN slot.
func TestPatchDelaysChecksFraming(t *testing.T) {
	g := snapTestGraph(t)
	base := g.Snapshot()
	stride := g.Space.Stride()
	slot := func(ei uint32, nominal float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, ei)
		for k := 0; k < stride; k++ {
			x := 0.0
			if k == 0 {
				x = nominal
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, c := range map[string]struct {
		slots []byte
		want  string
	}{
		"short":        {slot(1, 3)[:10], "whole"},
		"out of range": {slot(uint32(len(base.Edges)), 3), "outside"},
		"descending":   {cat(slot(3, 1), slot(1, 1)), "out of order"},
		"repeated":     {cat(slot(1, 1), slot(1, 2)), "out of order"},
	} {
		if _, err := base.PatchDelays(c.slots); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: PatchDelays error %v, want %q", name, err, c.want)
		}
	}
	bad := *base
	bad.Globals = -1
	if _, err := bad.PatchDelays(nil); err == nil {
		t.Fatal("PatchDelays accepted a negative space")
	}
	nan, err := base.PatchDelays(slot(1, math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSnapshot(nan); err == nil {
		t.Fatal("FromSnapshot accepted a NaN slot patched in by a delta")
	}
	ok, err := base.PatchDelays(cat(slot(0, 4), slot(2, 5)))
	if err != nil {
		t.Fatal(err)
	}
	rg, err := FromSnapshot(ok)
	if err != nil {
		t.Fatal(err)
	}
	if n := rg.Edges[2].Delay.Nominal; n != 5 {
		t.Fatalf("patched edge 2 nominal %g, want 5", n)
	}
}
