package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormPDF(t *testing.T) {
	if got := NormPDF(0); math.Abs(got-0.3989422804014327) > 1e-15 {
		t.Fatalf("NormPDF(0) = %v", got)
	}
	if got := NormPDF(1); math.Abs(got-0.24197072451914337) > 1e-15 {
		t.Fatalf("NormPDF(1) = %v", got)
	}
	if NormPDF(-2) != NormPDF(2) {
		t.Fatal("NormPDF not symmetric")
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormCDF(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

func TestNormQuantileRoundtrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-5, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-5, 1 - 1e-10} {
		x := NormQuantile(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-10*math.Max(1, 1/math.Min(p, 1-p)*1e-4) && math.Abs(back-p) > 1e-12 {
			t.Errorf("roundtrip p=%g -> x=%g -> %g", p, x, back)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("NormQuantile boundary values wrong")
	}
	if !math.IsNaN(NormQuantile(math.NaN())) {
		t.Fatal("NormQuantile(NaN) should be NaN")
	}
}

func TestNormQuantileQuick(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p == 0 {
			p = 0.5
		}
		x := NormQuantile(p)
		return math.Abs(NormCDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	// Sample std with n-1 denominator: sqrt(32/7).
	if math.Abs(s.Std-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("Std = %g", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("extremes = %g, %g", s.Min, s.Max)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary should be zero")
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.3, 0.3, 0.6, 0.9, -5, 7} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	// -5 clamps to bin 0, 7 clamps to bin 3.
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[2] != 1 || h.Counts[3] != 2 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	lo, hi := h.BinBounds(1)
	if lo != 0.25 || hi != 0.5 {
		t.Fatalf("BinBounds(1) = %g, %g", lo, hi)
	}
	if math.Abs(h.Fraction(0)-2.0/7.0) > 1e-15 {
		t.Fatalf("Fraction(0) = %g", h.Fraction(0))
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Fatal("empty range accepted")
	}
	h, _ := NewHistogram(0, 1, 3)
	if h.Fraction(0) != 0 {
		t.Fatal("Fraction on empty histogram should be 0")
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 3 || e.Min() != 1 || e.Max() != 3 {
		t.Fatalf("ECDF basics wrong: n=%d min=%g max=%g", e.N(), e.Min(), e.Max())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 1.0 / 3}, {1.5, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 3 || e.Quantile(0.5) != 2 {
		t.Fatalf("quantiles wrong: %g %g %g", e.Quantile(0), e.Quantile(0.5), e.Quantile(1))
	}
	if _, err := NewECDF(nil); err == nil {
		t.Fatal("empty ECDF accepted")
	}
}

func TestECDFMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	e, _ := NewECDF(xs)
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return e.Eval(a) <= e.Eval(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKSAgainstNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	e, _ := NewECDF(xs)
	d := e.KSAgainst(NormCDF)
	// For n=20000 the expected KS distance is ~ 1/sqrt(n) ~ 0.007.
	if d > 0.02 {
		t.Fatalf("KS distance of normal sample vs normal CDF = %g, too large", d)
	}
	// A shifted normal should be far.
	dShift := e.KSAgainst(func(x float64) float64 { return NormCDF(x - 1) })
	if dShift < 0.3 {
		t.Fatalf("KS vs shifted normal = %g, too small", dShift)
	}
}

// KSTwoSample returns the two-sample KS distance between two ECDFs; only
// tests compare two samples directly.
func KSTwoSample(a, b *ECDF) float64 {
	var d float64
	for _, x := range a.sorted {
		d = math.Max(d, math.Abs(a.Eval(x)-b.Eval(x)))
	}
	for _, x := range b.sorted {
		d = math.Max(d, math.Abs(a.Eval(x)-b.Eval(x)))
	}
	return d
}

func TestKSTwoSample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	c := make([]float64, 5000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64() + 2
	}
	ea, _ := NewECDF(a)
	eb, _ := NewECDF(b)
	ec, _ := NewECDF(c)
	if d := KSTwoSample(ea, eb); d > 0.05 {
		t.Fatalf("same-distribution KS = %g", d)
	}
	if d := KSTwoSample(ea, ec); d < 0.5 {
		t.Fatalf("shifted-distribution KS = %g, want large", d)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	e, _ := NewECDF([]float64{10, 20, 30, 40})
	if e.Quantile(0.25) != 10 || e.Quantile(0.26) != 20 || e.Quantile(0.75) != 30 || e.Quantile(0.76) != 40 {
		t.Fatalf("nearest-rank quantiles wrong: %g %g %g %g",
			e.Quantile(0.25), e.Quantile(0.26), e.Quantile(0.75), e.Quantile(0.76))
	}
}
