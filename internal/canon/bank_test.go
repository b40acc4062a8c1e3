package canon

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

const kernelTol = 1e-12

// relDiff is |a-b| scaled by max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / scale
}

func viewOf(b *Bank, f *Form) View {
	v := b.Take()
	v.LoadForm(f)
	return v
}

func formsEqual(t *testing.T, what string, f *Form, v View, s Space) {
	t.Helper()
	g := v.Form(s)
	if relDiff(f.Nominal, g.Nominal) > kernelTol {
		t.Fatalf("%s: Nominal %g vs %g", what, f.Nominal, g.Nominal)
	}
	if relDiff(f.Rand, g.Rand) > kernelTol {
		t.Fatalf("%s: Rand %g vs %g", what, f.Rand, g.Rand)
	}
	for i := range f.Glob {
		if relDiff(f.Glob[i], g.Glob[i]) > kernelTol {
			t.Fatalf("%s: Glob[%d] %g vs %g", what, i, f.Glob[i], g.Glob[i])
		}
	}
	for i := range f.Loc {
		if relDiff(f.Loc[i], g.Loc[i]) > kernelTol {
			t.Fatalf("%s: Loc[%d] %g vs %g", what, i, f.Loc[i], g.Loc[i])
		}
	}
}

// TestViewKernelsMatchFormKernels drives the fused flat kernels and the
// pointer-based reference kernels over the same random operands and
// requires agreement at 1e-12 — the arena engine's numerical contract.
func TestViewKernelsMatchFormKernels(t *testing.T) {
	space := Space{Globals: 3, Components: 7}
	rng := rand.New(rand.NewSource(7))
	bank := NewBank(space, 8)
	for iter := 0; iter < 500; iter++ {
		a, b := randomForm(rng, space), randomForm(rng, space)
		// Delay-like means so Max exercises both branches of the blend.
		a.Nominal = 50 + 20*rng.Float64()
		b.Nominal = 50 + 20*rng.Float64()

		bank.Reset()
		av, bv := viewOf(bank, a), viewOf(bank, b)
		formsEqual(t, "LoadForm/Form roundtrip", a, av, space)

		if relDiff(a.Variance(), av.Variance()) > kernelTol {
			t.Fatalf("Variance: %g vs %g", a.Variance(), av.Variance())
		}
		va, vb, cov := VarCov(a, b)
		wa, wb, wcov := VarCovViews(av, bv)
		if relDiff(va, wa) > kernelTol || relDiff(vb, wb) > kernelTol || relDiff(cov, wcov) > kernelTol {
			t.Fatalf("VarCov: (%g,%g,%g) vs (%g,%g,%g)", va, vb, cov, wa, wb, wcov)
		}
		if relDiff(Cov(a, b), CovViews(av, bv)) > kernelTol {
			t.Fatalf("Cov: %g vs %g", Cov(a, b), CovViews(av, bv))
		}

		sum := Add(a, b)
		sv := bank.Take()
		AddViews(sv, av, bv)
		formsEqual(t, "Add", sum, sv, space)

		mx := Max(a, b)
		mv := bank.Take()
		MaxViews(mv, av, bv)
		formsEqual(t, "Max", mx, mv, space)

		tp := TightnessProb(a, b)
		tpv := TightnessProbViews(av, bv)
		if relDiff(tp, tpv) > kernelTol {
			t.Fatalf("TightnessProb: %g vs %g", tp, tpv)
		}
	}
}

// TestViewKernelsAliasing checks the documented dst==a aliasing of the
// fused kernels against out-of-place references.
func TestViewKernelsAliasing(t *testing.T) {
	space := Space{Globals: 2, Components: 4}
	rng := rand.New(rand.NewSource(11))
	bank := NewBank(space, 4)
	a, b := randomForm(rng, space), randomForm(rng, space)
	a.Nominal, b.Nominal = 10, 11

	bank.Reset()
	av, bv := viewOf(bank, a), viewOf(bank, b)
	want := bank.Take()
	AddViews(want, av, bv)
	AddViews(av, av, bv) // aliased
	for i := range want {
		if av[i] != want[i] {
			t.Fatalf("AddViews aliasing: slot %d: %g vs %g", i, av[i], want[i])
		}
	}

	bank.Reset()
	av, bv = viewOf(bank, a), viewOf(bank, b)
	want = bank.Take()
	MaxViews(want, av, bv)
	MaxViews(av, av, bv) // aliased
	for i := range want {
		if av[i] != want[i] {
			t.Fatalf("MaxViews aliasing: slot %d: %g vs %g", i, av[i], want[i])
		}
	}
}

// TestViewDegenerateMax mirrors the pointer kernels' theta~0 tie-breaking.
func TestViewDegenerateMax(t *testing.T) {
	space := Space{Globals: 1, Components: 1}
	bank := NewBank(space, 3)
	a, b := space.Const(5), space.Const(7)
	a.Glob[0], b.Glob[0] = 1, 1 // identical shared parts: theta = 0
	av, bv := viewOf(bank, a), viewOf(bank, b)
	dst := bank.Take()
	MaxViews(dst, av, bv)
	formsEqual(t, "degenerate max", Max(a, b), dst, space)
	if dst.Nominal() != 7 {
		t.Fatalf("degenerate max picked %g, want 7", dst.Nominal())
	}
	if got := TightnessProbViews(av, bv); got != 0 {
		t.Fatalf("degenerate TP = %g, want 0", got)
	}
}

// TestAddSqrtMatchesHypot is the regression fence for replacing math.Hypot
// with Sqrt(a*a+b*b) in the add kernels: over the whole magnitude range of
// delay coefficients the two agree to 1e-12 relative.
func TestAddSqrtMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		// ps-scale delay sigmas: from sub-femtosecond noise to microseconds.
		ea, eb := rng.Float64()*18-9, rng.Float64()*18-9
		a := rng.Float64() * math.Pow(10, ea)
		b := rng.Float64() * math.Pow(10, eb)
		want := math.Hypot(a, b)
		got := math.Sqrt(a*a + b*b)
		if relDiff(want, got) > 1e-12 {
			t.Fatalf("sqrt(a²+b²) diverges from hypot at a=%g b=%g: %g vs %g", a, b, got, want)
		}
	}
	// The zero corner stays exact.
	if math.Sqrt(0*0+0*0) != 0 {
		t.Fatal("zero corner")
	}
}

func TestBankTakeResetExhaustion(t *testing.T) {
	space := Space{Globals: 1, Components: 2}
	bank := NewBank(space, 2)
	if bank.Cap() != 2 || bank.Space() != space {
		t.Fatalf("bank shape: cap=%d space=%+v", bank.Cap(), bank.Space())
	}
	v := bank.Take()
	if len(v) != space.Stride() {
		t.Fatalf("stride %d, want %d", len(v), space.Stride())
	}
	v.SetConst(3)
	if v.Nominal() != 3 || v.Variance() != 0 {
		t.Fatalf("SetConst: %+v", v)
	}
	bank.Take()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Take past capacity did not panic")
			}
		}()
		bank.Take()
	}()
	bank.Reset()
	if got := bank.Take(); got.Nominal() != 3 {
		t.Fatal("Reset did not rewind to slot 0")
	}
	bank.Reset()
	if vs := bank.TakeBlock(2); len(vs) != 2 || len(vs[0]) != space.Stride() {
		t.Fatalf("TakeBlock: %v", vs)
	}
}

func TestViewAccessors(t *testing.T) {
	space := Space{Globals: 2, Components: 3}
	f := space.NewForm()
	f.Nominal, f.Rand = 4, 2
	f.Glob[1], f.Loc[2] = 5, 6
	bank := NewBank(space, 1)
	v := viewOf(bank, f)
	if v.Nominal() != 4 || v.Rand() != 2 {
		t.Fatalf("accessors: %+v", v)
	}
	if c := v.Coeffs(); len(c) != space.Dim() || c[1] != 5 || c[4] != 6 {
		t.Fatalf("Coeffs: %v", v.Coeffs())
	}
	v.SetNominal(9)
	if v.Nominal() != 9 {
		t.Fatal("SetNominal")
	}
	if v.Std() != math.Sqrt(4+25+36) {
		t.Fatalf("Std: %g", v.Std())
	}
}

// scalePartsView is the two-step reference of AddScaledViews: the scaled
// image of src written into its own view, which AddViews then reads back.
func scalePartsView(dst, src View, nGlob int, all, glob, loc, rand float64) {
	dst[0] = src[0] * all
	kg := all * glob
	i := 1
	for ; i <= nGlob; i++ {
		dst[i] = src[i] * kg
	}
	kl := all * loc
	n := len(dst) - 1
	for ; i < n; i++ {
		dst[i] = src[i] * kl
	}
	kr := all * rand
	if kr < 0 {
		kr = -kr
	}
	dst[n] = src[n] * kr
}

// TestAddScaledViewsMatchesScaleThenAdd: the fused kernel equals
// scale-then-add bit for bit, every word and sign of zero, on random forms
// and factors — exact ones of 1, negative rand factors and -0 coefficients
// included — and with dst aliasing a.
func TestAddScaledViewsMatchesScaleThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	factor := func() float64 {
		if rng.Intn(3) == 0 {
			return 1
		}
		return 0.5 + rng.Float64()
	}
	for _, space := range []Space{{Globals: 1, Components: 3}, {Globals: 3, Components: 7}, {Globals: 5, Components: 70}} {
		bank := NewBank(space, 5)
		a, src, scaled, want, got := bank.View(0), bank.View(1), bank.View(2), bank.View(3), bank.View(4)
		for iter := 0; iter < 2000; iter++ {
			a.LoadForm(randomForm(rng, space))
			src.LoadForm(randomForm(rng, space))
			a[0], src[0] = 100*rng.Float64(), 10*rng.Float64()
			if iter%7 == 0 {
				src[1+rng.Intn(space.Dim())] = math.Copysign(0, -1)
			}
			all, glob, loc, rnd := factor(), factor(), factor(), factor()
			if iter%5 == 0 {
				rnd = -rnd
			}
			scalePartsView(scaled, src, space.Globals, all, glob, loc, rnd)
			AddViews(want, a, scaled)
			AddScaledViews(got, a, src, space.Globals, all, glob, loc, rnd)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("space %+v iter %d word %d: fused %g, scale-then-add %g", space, iter, k, got[k], want[k])
				}
			}
			AddScaledViews(a, a, src, space.Globals, all, glob, loc, rnd)
			for k := range want {
				if math.Float64bits(a[k]) != math.Float64bits(want[k]) {
					t.Fatalf("space %+v iter %d word %d: aliased fused %g, scale-then-add %g", space, iter, k, a[k], want[k])
				}
			}
		}
	}
}

// TestClarkViewsMatchScalarEquations checks MaxViews and MinViews against
// a plain scalar evaluation of Clark's equations (paper eqs. 6-9), with the
// erfc-based NormCDF and NormPDF, over dimensions on both sides of the
// vector dispatch threshold. The *Form kernels run the same bodies as the
// View kernels, so this is the independent check on their arithmetic:
// nominal and blended coefficients at 1e-12 relative, and the matched
// private part through the variance it restores, at 1e-12 of the second
// moment eq. 8 subtracts from.
func TestClarkViewsMatchScalarEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{1, 5, 7, 8, 9, 21, 30, 75, 111, 130} {
		space := Space{Globals: 1, Components: d - 1}
		if d > 3 {
			space = Space{Globals: 3, Components: d - 3}
		}
		bank := NewBank(space, 3)
		for iter := 0; iter < 200; iter++ {
			a, b := bank.View(0), bank.View(1)
			a[0], b[0] = 50+20*rng.Float64(), 50+20*rng.Float64()
			rho := rng.Float64() // correlate b with a
			for i := 1; i <= d; i++ {
				a[i] = rng.NormFloat64()
				b[i] = rho*a[i] + (1-rho)*rng.NormFloat64()
			}
			a[d+1], b[d+1] = rng.Float64(), rng.Float64()
			for _, sign := range []float64{1, -1} {
				dst := bank.View(2)
				if sign > 0 {
					MaxViews(dst, a, b)
				} else {
					MinViews(dst, a, b)
				}

				// Eq. 6: theta and the tightness of the (sign-mirrored) max.
				var va, vb, cov float64
				for i := 1; i <= d; i++ {
					va += a[i] * a[i]
					vb += b[i] * b[i]
					cov += a[i] * b[i]
				}
				va += a[d+1] * a[d+1]
				vb += b[d+1] * b[d+1]
				theta := math.Sqrt(va + vb - 2*cov)
				ma, mb := sign*a[0], sign*b[0]
				alpha := (ma - mb) / theta
				tp := stats.NormCDF(alpha)
				phi := stats.NormPDF(alpha)
				// Eqs. 7-8: the first two moments.
				mean := tp*ma + (1-tp)*mb + theta*phi
				variance := tp*(va+ma*ma) + (1-tp)*(vb+mb*mb) + (ma+mb)*theta*phi - mean*mean
				// Eq. 9: blended shared coefficients.
				var shared, got float64
				for i := 1; i <= d; i++ {
					c := tp*a[i] + (1-tp)*b[i]
					shared += c * c
					got += dst[i] * dst[i]
					if relDiff(dst[i], c) > kernelTol {
						t.Fatalf("d=%d sign=%g: coeff %d = %g, eqs. give %g", d, sign, i, dst[i], c)
					}
				}
				if relDiff(dst[0], sign*mean) > kernelTol {
					t.Fatalf("d=%d sign=%g: mean %g, eqs. give %g", d, sign, dst[0], sign*mean)
				}
				// Eq. 8 takes the squared mean off the second moment, so its
				// rounding scales with the second moment, not the variance.
				second := variance + mean*mean
				want := math.Max(variance, shared) // private part clips at 0
				if got += dst[d+1] * dst[d+1]; math.Abs(got-want) > kernelTol*second {
					t.Fatalf("d=%d sign=%g: variance %g, eqs. give %g", d, sign, got, want)
				}
			}
		}
	}
}

// TestFormKernelsDoNotAllocate: the pointer kernels stage their operands
// on the stack, so at c7552 dimensions they allocate nothing per call.
func TestFormKernelsDoNotAllocate(t *testing.T) {
	space := Space{Globals: 3, Components: 108}
	rng := rand.New(rand.NewSource(5))
	a, b, dst := randomForm(rng, space), randomForm(rng, space), space.NewForm()
	a.Nominal, b.Nominal = 100, 101
	allocs := testing.AllocsPerRun(100, func() {
		MaxInto(dst, a, b)
		MinInto(dst, dst, b)
		VarCov(a, b)
		TightnessProb(a, b)
	})
	if allocs != 0 {
		t.Fatalf("pointer kernels allocate %v times per call set", allocs)
	}
}

// TestViewKernelsRejectMismatchedSpaces: a bank view's capacity ends with
// its slot, so a kernel handed a shorter operand panics rather than
// reading the slot after it.
func TestViewKernelsRejectMismatchedSpaces(t *testing.T) {
	big, small := Space{Globals: 3, Components: 9}, Space{Globals: 3, Components: 5}
	bb, sb := NewBank(big, 2), NewBank(small, 4)
	kernels := map[string]func(){
		"AddViews":    func() { AddViews(bb.View(0), bb.View(1), sb.View(1)) },
		"MaxViews":    func() { MaxViews(bb.View(0), bb.View(1), sb.View(1)) },
		"VarCovViews": func() { VarCovViews(bb.View(1), sb.View(1)) },
		"DotCoeffs":   func() { DotCoeffs(bb.View(1), sb.View(1)) },
		"AddScaledViews": func() {
			AddScaledViews(bb.View(0), bb.View(1), sb.View(1), 3, 1, 1, 1, 1)
		},
	}
	for name, k := range kernels {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a shorter operand", name)
				}
			}()
			k()
		}()
	}
}
