// Package stats provides the probability and descriptive-statistics
// substrate for the SSTA engine: standard-normal math, moment summaries,
// histograms, empirical CDFs and distribution distances.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// invSqrt2Pi is 1/sqrt(2*pi), the normalization of the standard normal pdf.
const invSqrt2Pi = 0.3989422804014327

// NormPDF returns the standard normal density phi(x).
func NormPDF(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// NormCDF returns the standard normal distribution function Phi(x).
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormTP returns Phi(z) and phi(z) from one shared exponential — the pair
// every Clark max step consumes. The CDF uses Hart's rational approximation
// (the double-precision variant popularized by West), whose body and tail
// are both built around exp(-z^2/2); evaluating the density from the same
// exponential makes the pair roughly the price of one Erfc call. Absolute
// error of the CDF is below 1e-14; the density is bit-identical to
// NormPDF. The symmetry Phi(z) + Phi(-z) = 1 is exact by construction.
//
// NormTP is the hot-path companion of NormCDF, not a replacement: every
// canonical-form kernel in internal/canon (the Clark max and min of
// propagation, tightness probabilities, the criticality chain) takes its
// (Phi, phi) pair from NormTP, while NormCDF (erfc-based) remains the
// reference used by quantiles, Form.CDF and the tests that check the
// kernels' arithmetic.
func NormTP(z float64) (cdf, pdf float64) {
	x := math.Abs(z)
	e := math.Exp(-0.5 * x * x)
	pdf = invSqrt2Pi * e
	var c float64
	switch {
	case x < 7.07106781186547:
		n := 3.52624965998911e-02*x + 0.700383064443688
		n = n*x + 6.37396220353165
		n = n*x + 33.912866078383
		n = n*x + 112.079291497871
		n = n*x + 221.213596169931
		n = n*x + 220.206867912376
		d := 8.83883476483184e-02*x + 1.75566716318264
		d = d*x + 16.064177579207
		d = d*x + 86.7807322029461
		d = d*x + 296.564248779674
		d = d*x + 637.333633378831
		d = d*x + 793.826512519948
		d = d*x + 440.413735824752
		c = e * n / d
	default:
		lo := x + 0.65
		lo = x + 4/lo
		lo = x + 3/lo
		lo = x + 2/lo
		lo = x + 1/lo
		c = e / (lo * 2.506628274631)
	}
	if z > 0 {
		c = 1 - c
	}
	return c, pdf
}

// NormQuantile returns Phi^-1(p) for p in (0, 1). It uses the Acklam
// rational approximation refined by one Halley step, accurate to ~1e-15.
// p <= 0 returns -Inf and p >= 1 returns +Inf.
func NormQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// Summary holds the first two moments plus extrema of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. The standard deviation uses the
// unbiased (n-1) denominator; a single sample reports Std = 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Histogram is a fixed-range equal-width histogram. Samples outside
// [Lo, Hi] are clamped into the first/last bin so nothing is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bins, got %d", bins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram needs hi > lo, got [%g, %g]", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	b := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BinBounds returns the [lo, hi) interval of bin b.
func (h *Histogram) BinBounds(b int) (float64, float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(b)*w, h.Lo + float64(b+1)*w
}

// Fraction returns the fraction of samples falling in bin b.
func (h *Histogram) Fraction(b int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[b]) / float64(h.total)
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (copied and sorted).
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, errors.New("stats: ECDF needs at least one sample")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// Eval returns P(X <= x) under the empirical distribution.
func (e *ECDF) Eval(x float64) float64 {
	// Number of samples <= x.
	n := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(n) / float64(len(e.sorted))
}

// Quantile returns the p-quantile for p in [0,1] using the nearest-rank
// definition.
func (e *ECDF) Quantile(p float64) float64 {
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}

// Min and Max return the sample extremes.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// KSAgainst returns the Kolmogorov-Smirnov distance between the ECDF and a
// reference CDF evaluated via cdf(x).
func (e *ECDF) KSAgainst(cdf func(float64) float64) float64 {
	var d float64
	n := float64(len(e.sorted))
	for i, x := range e.sorted {
		f := cdf(x)
		d = math.Max(d, math.Abs(float64(i+1)/n-f))
		d = math.Max(d, math.Abs(float64(i)/n-f))
	}
	return d
}
