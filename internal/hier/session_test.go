package hier

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/timing"
)

var sessionSpec = circuit.TopoSpec{Name: "g90", PIs: 10, POs: 5, Gates: 90, Edges: 190, Depth: 10}

// sessionDesign builds a quad design around a generated module plus a
// same-footprint replacement module (same spec, different seed).
func sessionDesign(t *testing.T) (*Design, *Module, *Module) {
	t.Helper()
	mod := genModule(t, sessionSpec, 1)
	alt := genModule(t, sessionSpec, 2)
	if alt.NX != mod.NX || alt.NY != mod.NY || alt.Pitch != mod.Pitch {
		t.Fatalf("generated modules differ in footprint: %dx%d vs %dx%d",
			mod.NX, mod.NY, alt.NX, alt.NY)
	}
	return twoByTwo(t, mod), mod, alt
}

func sessionDelayDiff(t *testing.T, s *Session, want *Design, mode Mode) float64 {
	t.Helper()
	got, err := s.Graph().MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	res, err := want.Analyze(mode)
	if err != nil {
		t.Fatal(err)
	}
	return formsAgree(got, res.Delay)
}

func TestSessionMatchesAnalyze(t *testing.T) {
	d, _, _ := sessionDesign(t)
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		s, err := NewSession(context.Background(), d.CopyStructure(), mode, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sessionDelayDiff(t, s, d, mode); diff > 1e-9 {
			t.Fatalf("mode %v: session stitch differs from Analyze by %g", mode, diff)
		}
	}
}

func TestSessionSwapModule(t *testing.T) {
	d, mod, alt := sessionDesign(t)
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		s, err := NewSession(context.Background(), d.CopyStructure(), mode, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Swap instance B to the re-characterized module; the from-scratch
		// reference is a fresh design with the same swap applied.
		if err := s.SwapModule(context.Background(), "B", alt); err != nil {
			t.Fatal(err)
		}
		want := d.CopyStructure()
		want.Instances[1].Module = alt
		if diff := sessionDelayDiff(t, s, want, mode); diff > 1e-9 {
			t.Fatalf("mode %v: post-swap session differs from Analyze by %g", mode, diff)
		}
		// Swap back: the session must return to the original answer.
		if err := s.SwapModule(context.Background(), "B", mod); err != nil {
			t.Fatal(err)
		}
		if diff := sessionDelayDiff(t, s, d, mode); diff > 1e-9 {
			t.Fatalf("mode %v: swap round-trip differs from Analyze by %g", mode, diff)
		}
	}
}

func TestSessionSwapUnknownInstance(t *testing.T) {
	d, _, alt := sessionDesign(t)
	s, err := NewSession(context.Background(), d.CopyStructure(), FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModule(context.Background(), "nope", alt); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if err := s.SwapModule(context.Background(), "A", nil); err == nil {
		t.Fatal("nil module accepted")
	}
	// The failed swaps must not have corrupted the session.
	if diff := sessionDelayDiff(t, s, d, FullCorrelation); diff > 1e-9 {
		t.Fatalf("failed swap corrupted the session (diff %g)", diff)
	}
}

// TestSessionSwapInterrupted checks the transactional contract: a swap
// cancelled mid-derivation must leave the session fully on its previous
// state — design, prep, caches and top graph — and a later swap succeeds.
func TestSessionSwapInterrupted(t *testing.T) {
	d, _, alt := sessionDesign(t)
	s, err := NewSession(context.Background(), d.CopyStructure(), FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.SwapModule(ctx, "B", alt); err == nil {
		t.Fatal("cancelled swap reported success")
	}
	if s.Design().Instances[1].Module == alt {
		t.Fatal("failed swap committed the module")
	}
	if diff := sessionDelayDiff(t, s, d, FullCorrelation); diff > 1e-9 {
		t.Fatalf("failed swap corrupted the session (diff %g)", diff)
	}
	// The same swap applies cleanly afterwards.
	if err := s.SwapModule(context.Background(), "B", alt); err != nil {
		t.Fatal(err)
	}
	want := d.CopyStructure()
	want.Instances[1].Module = alt
	if diff := sessionDelayDiff(t, s, want, FullCorrelation); diff > 1e-9 {
		t.Fatalf("post-recovery swap differs from Analyze by %g", diff)
	}
}

func TestSessionSetNetDelay(t *testing.T) {
	d, _, _ := sessionDesign(t)
	s, err := NewSession(context.Background(), d.CopyStructure(), FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetNetDelay(0, 35); err != nil {
		t.Fatal(err)
	}
	want := d.CopyStructure()
	want.Nets[0].Delay = 35
	if diff := sessionDelayDiff(t, s, want, FullCorrelation); diff > 1e-9 {
		t.Fatalf("net-delay edit differs from Analyze by %g", diff)
	}
	if err := s.SetNetDelay(-1, 1); err == nil {
		t.Fatal("negative net index accepted")
	}
	if err := s.SetNetDelay(0, -5); err == nil {
		t.Fatal("negative delay accepted")
	}
	// A restitch (module swap) must preserve the edited net delay.
	if err := s.SwapModule(context.Background(), "A", s.Design().Instances[0].Module); err != nil {
		t.Fatal(err)
	}
	if diff := sessionDelayDiff(t, s, want, FullCorrelation); diff > 1e-9 {
		t.Fatalf("restitch lost the net-delay edit (diff %g)", diff)
	}
}

// formsEqual reports whether two forms are equal word for word.
func formsEqual(a, b *canon.Form) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Nominal == b.Nominal && a.Rand == b.Rand &&
		slices.Equal(a.Glob, b.Glob) && slices.Equal(a.Loc, b.Loc)
}

// assertTopsIdentical checks a session top against a Stitch top with ==:
// every edge (ends, delay words, LSens, grid), the IO, the registers and
// the clock roots.
func assertTopsIdentical(t *testing.T, label string, got, want *timing.Graph) {
	t.Helper()
	if got.NumVerts != want.NumVerts || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d verts/%d edges, Stitch %d/%d", label,
			got.NumVerts, len(got.Edges), want.NumVerts, len(want.Edges))
	}
	for k := range got.Edges {
		g, w := &got.Edges[k], &want.Edges[k]
		if g.From != w.From || g.To != w.To || !formsEqual(g.Delay, w.Delay) ||
			!slices.Equal(g.LSens, w.LSens) || g.Grid != w.Grid {
			t.Fatalf("%s: edge %d differs from Stitch", label, k)
		}
	}
	if !slices.Equal(got.Inputs, want.Inputs) || !slices.Equal(got.Outputs, want.Outputs) ||
		!slices.Equal(got.InputNames, want.InputNames) || !slices.Equal(got.OutputNames, want.OutputNames) {
		t.Fatalf("%s: IO differs from Stitch", label)
	}
	if len(got.Registers) != len(want.Registers) {
		t.Fatalf("%s: %d registers, Stitch %d", label, len(got.Registers), len(want.Registers))
	}
	for k := range got.Registers {
		g, w := &got.Registers[k], &want.Registers[k]
		if g.Name != w.Name || g.Q != w.Q || g.D != w.D || g.ClkEdge != w.ClkEdge || g.Grid != w.Grid ||
			!formsEqual(g.Setup, w.Setup) || !formsEqual(g.Hold, w.Hold) {
			t.Fatalf("%s: register %d (%s) differs from Stitch", label, k, g.Name)
		}
	}
	if !slices.Equal(got.ClockRoots, want.ClockRoots) {
		t.Fatalf("%s: clock roots %v, Stitch %v", label, got.ClockRoots, want.ClockRoots)
	}
}

// stitchTop stitches d from a cold cache: the reference a session top must
// reproduce.
func stitchTop(t *testing.T, d *Design, mode Mode) *timing.Graph {
	t.Helper()
	res, err := d.Stitch(context.Background(), mode, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

// TestSessionSequentialMatchesStitch: a session over a sequential design
// carries the registers and clock roots Stitch does, so its top analyzes
// like the design.
func TestSessionSequentialMatchesStitch(t *testing.T) {
	d := twoByTwo(t, buildSeqModule(t, "sm4", 4))
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		s, err := NewSession(context.Background(), d.CopyStructure(), mode, AnalyzeOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := stitchTop(t, d.CopyStructure(), mode)
		if len(want.Registers) == 0 || len(want.ClockRoots) == 0 {
			t.Fatal("fixture: stitched top is not sequential")
		}
		assertTopsIdentical(t, mode.String(), s.Graph(), want)
		if _, err := s.Graph().MaxDelay(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestSessionTopIsStitchTop pins the single stitcher bit for bit: in every
// session state, the session top equals Design.Stitch of an equally
// mutated copy of the design.
func TestSessionTopIsStitchTop(t *testing.T) {
	big := circuit.TopoSpec{Name: "g150", PIs: 10, POs: 5, Gates: 150, Edges: 310, Depth: 12}
	mod, alt := genModule(t, big, 1), genModule(t, big, 2)
	small := genModule(t, sessionSpec, 1)
	if alt.NX != mod.NX || alt.NY != mod.NY || small.NX*small.NY >= mod.NX*mod.NY {
		t.Fatalf("fixture footprints: mod %dx%d, alt %dx%d, small %dx%d",
			mod.NX, mod.NY, alt.NX, alt.NY, small.NX, small.NY)
	}
	d := twoByTwo(t, mod)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	states := []struct {
		name   string
		edit   func(s *Session) error
		mirror func(d *Design)
	}{
		{"fresh", func(*Session) error { return nil }, func(*Design) {}},
		{"same-footprint-swap",
			func(s *Session) error { return s.SwapModule(context.Background(), "B", alt) },
			func(d *Design) { d.Instances[1].Module = alt }},
		{"footprint-swap",
			func(s *Session) error { return s.SwapModule(context.Background(), "B", small) },
			func(d *Design) { d.Instances[1].Module = small }},
		{"set-net-delay",
			func(s *Session) error { return s.SetNetDelay(3, 21.5) },
			func(d *Design) { d.Nets[3].Delay = 21.5 }},
		{"cancelled-swap",
			func(s *Session) error {
				if s.SwapModule(cancelled, "B", alt) == nil {
					return fmt.Errorf("cancelled swap reported success")
				}
				return nil
			},
			func(*Design) {}},
	}
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		for _, st := range states {
			s, err := NewSession(context.Background(), d.CopyStructure(), mode, AnalyzeOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.edit(s); err != nil {
				t.Fatalf("%v/%s: %v", mode, st.name, err)
			}
			want := d.CopyStructure()
			st.mirror(want)
			assertTopsIdentical(t, fmt.Sprintf("%v/%s", mode, st.name), s.Graph(), stitchTop(t, want, mode))
		}
	}
}
