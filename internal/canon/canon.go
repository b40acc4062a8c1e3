// Package canon implements the canonical first-order delay form of the
// paper's Section II and its statistical operations.
//
// A delay is represented as
//
//	d = Nominal + sum_g Glob[g]*G_g + sum_k Loc[k]*X_k + Rand*R
//
// where G_g are global process variables shared by every delay in the whole
// design (one per process parameter), X_k are independent unit-variance
// components obtained by PCA of the spatially correlated grid variables
// (paper eq. 2-3), and R is a private standard normal modeling purely random
// variation. All variables are independent N(0,1), so
//
//	Var(d)    = |Glob|^2 + |Loc|^2 + Rand^2
//	Cov(a, b) = Glob_a . Glob_b + Loc_a . Loc_b
//
// Sum adds coefficients and combines the private random parts by
// root-sum-of-squares (paper Section II). Max uses Clark's moment matching
// with the tightness probability (paper eqs. 6-9).
//
// Forms exist in two representations. *Form is the pointer-based boundary
// type used for construction, serialization and reporting. The propagation
// hot path instead runs on flat storage: a Bank is one contiguous
// structure-of-arrays arena holding many forms at stride Dim()+2, a View is
// one form inside it, and the fused view kernels (AddViews, AddScaledViews,
// MaxViews, MinViews, VarCovViews, TightnessProbViews — see bank.go)
// allocate nothing.
//
// The package has one arithmetic per process. Every View kernel hands its
// coefficient body to the AVX2/FMA kernels of asm_amd64.s, chosen once at
// init, or to the generic loops of vec.go (on other CPUs and
// architectures, and under the purego build tag). The Clark max/min,
// VarCov and tightness kernels on *Form stage their operands into
// stack-backed Views and call the View kernels, so a View result is
// bit-identical to the *Form result of the same operands by construction.
// The element-wise adds equal a plain scalar loop bit for bit on either
// path; the reductions (variances, covariances, the blend energy) are
// summed lane-parallel with FMA on the vector path and agree with a scalar
// loop to 1e-12 relative.
package canon

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Space fixes the dimensionality of the shared variables of a set of forms.
// Forms from different spaces must never be combined.
type Space struct {
	Globals    int // number of global variables (one per process parameter)
	Components int // number of PCA components (parameters x retained grid components)
}

// Dim returns the number of shared random variables.
func (s Space) Dim() int { return s.Globals + s.Components }

// Form is one canonical first-order delay expression. The zero value is not
// usable; construct forms with Space.Const or Space.NewForm.
type Form struct {
	Nominal float64
	Glob    []float64 // length Space.Globals
	Loc     []float64 // length Space.Components
	Rand    float64   // coefficient of the private N(0,1); always >= 0
}

// NewForm returns a zero-valued form in the space.
func (s Space) NewForm() *Form {
	return &Form{Glob: make([]float64, s.Globals), Loc: make([]float64, s.Components)}
}

// Const returns a deterministic form with the given nominal value.
func (s Space) Const(v float64) *Form {
	f := s.NewForm()
	f.Nominal = v
	return f
}

// In reports whether the form has the dimensions of the space.
func (f *Form) In(s Space) bool {
	return len(f.Glob) == s.Globals && len(f.Loc) == s.Components
}

// Clone returns a deep copy.
func (f *Form) Clone() *Form {
	g := &Form{
		Nominal: f.Nominal,
		Glob:    make([]float64, len(f.Glob)),
		Loc:     make([]float64, len(f.Loc)),
		Rand:    f.Rand,
	}
	copy(g.Glob, f.Glob)
	copy(g.Loc, f.Loc)
	return g
}

// Mean returns the mean of the form. For the first-order canonical model the
// mean is the nominal value.
func (f *Form) Mean() float64 { return f.Nominal }

// Variance returns the variance of the form.
func (f *Form) Variance() float64 {
	var s float64
	for _, v := range f.Glob {
		s += v * v
	}
	for _, v := range f.Loc {
		s += v * v
	}
	return s + f.Rand*f.Rand
}

// Std returns the standard deviation.
func (f *Form) Std() float64 { return math.Sqrt(f.Variance()) }

// Cov returns the covariance of two forms. Private random parts never
// co-vary.
func Cov(a, b *Form) float64 {
	var s float64
	for i, v := range a.Glob {
		s += v * b.Glob[i]
	}
	for i, v := range a.Loc {
		s += v * b.Loc[i]
	}
	return s
}

// VarCov returns Var(a), Var(b) and Cov(a, b) in a single pass over the
// coefficient vectors: VarCovViews on the staged operands.
func VarCov(a, b *Form) (va, vb, cov float64) {
	var buf [stageLen]float64
	x, y := stage(buf[:], a, b)
	return VarCovViews(x, y)
}

// stageLen is the length of the stack buffer the pointer kernels stage two
// operands in: forms of up to stageLen/2-2 shared coefficients (a c7552
// graph has 111) never touch the heap.
const stageLen = 2 * 128

// stage copies a and b into contiguous Views over buf, or over a fresh heap
// buffer when they do not fit, so the pointer kernels can run the View
// kernels' bodies.
func stage(buf []float64, a, b *Form) (x, y View) {
	na, nb := len(a.Glob)+len(a.Loc)+2, len(b.Glob)+len(b.Loc)+2
	if na+nb > len(buf) {
		buf = make([]float64, na+nb)
	}
	x, y = View(buf[:na:na]), View(buf[na:na+nb:na+nb])
	x.LoadForm(a)
	y.LoadForm(b)
	return x, y
}

// Corr returns the correlation coefficient of two forms; 0 when either is
// deterministic.
func Corr(a, b *Form) float64 {
	sa, sb := a.Std(), b.Std()
	if sa == 0 || sb == 0 {
		return 0
	}
	return Cov(a, b) / (sa * sb)
}

// Add returns a+b as a new form.
func Add(a, b *Form) *Form {
	out := a.Clone()
	out.AddInPlace(b)
	return out
}

// AddInPlace accumulates b into f (f += b). Private random parts combine by
// root-sum-of-squares so the result variance is exact.
//
// The combine is a plain Sqrt(a*a+b*b) rather than math.Hypot: Hypot's
// overflow/underflow guard costs ~4x per call and delay coefficients are
// always far from the float64 extremes (see TestAddSqrtMatchesHypot).
func (f *Form) AddInPlace(b *Form) {
	f.Nominal += b.Nominal
	for i, v := range b.Glob {
		f.Glob[i] += v
	}
	for i, v := range b.Loc {
		f.Loc[i] += v
	}
	f.Rand = math.Sqrt(f.Rand*f.Rand + b.Rand*b.Rand)
}

// AddInto computes a+b into dst. dst may alias a (but not b).
func AddInto(dst, a, b *Form) {
	dst.Nominal = a.Nominal + b.Nominal
	for i := range dst.Glob {
		dst.Glob[i] = a.Glob[i] + b.Glob[i]
	}
	for i := range dst.Loc {
		dst.Loc[i] = a.Loc[i] + b.Loc[i]
	}
	dst.Rand = math.Sqrt(a.Rand*a.Rand + b.Rand*b.Rand)
}

// Scale returns s*f. Negative s flips coefficient signs; Rand stays
// non-negative.
func (f *Form) Scale(s float64) *Form {
	out := f.Clone()
	out.Nominal *= s
	for i := range out.Glob {
		out.Glob[i] *= s
	}
	for i := range out.Loc {
		out.Loc[i] *= s
	}
	out.Rand = math.Abs(out.Rand * s)
	return out
}

// thetaEps guards the degenerate max case: when the two operands are (nearly)
// perfectly correlated with (nearly) equal variance, theta -> 0 and the
// tightness probability becomes a step function of the mean difference.
const thetaEps = 1e-12

// TightnessProb returns TP = P(A >= B) per paper eq. 6, with the degenerate
// theta ~ 0 case resolved by comparing means (1/2 on a tie):
// TightnessProbViews on the staged operands.
func TightnessProb(a, b *Form) float64 {
	var buf [stageLen]float64
	x, y := stage(buf[:], a, b)
	return TightnessProbViews(x, y)
}

func thetaOf(va, vb, cov float64) float64 {
	t2 := va + vb - 2*cov
	if t2 < 0 {
		t2 = 0
	}
	return math.Sqrt(t2)
}

// Max returns Clark's moment-matched approximation of max(a, b) in canonical
// form (paper eqs. 6-9): the shared coefficients are the TP-weighted blend
// and the private random coefficient is set to match the Clark variance.
func Max(a, b *Form) *Form {
	out := a.Clone()
	MaxInto(out, a, b)
	return out
}

// MaxInto computes max(a, b) into dst: MaxViews on the staged operands.
// dst may alias a or b.
func MaxInto(dst, a, b *Form) { clarkInto(dst, a, b, 1) }

// clarkInto is the shared body of MaxInto (sign 1) and MinInto (sign -1):
// it stages the operands and runs clarkViews, the body of MaxViews and
// MinViews, then stores the result into dst.
func clarkInto(dst, a, b *Form, sign float64) {
	var buf [stageLen]float64
	x, y := stage(buf[:], a, b)
	clarkViews(x, x, y, sign)
	x.storeForm(dst)
}

// clarkMoments is the Clark moment algebra shared by every max and min
// kernel (paper eqs. 6-8). From the operand variances, their covariance and
// their means it returns the tightness tp = P(A >= B) and the mean and
// clamped variance of the moment-matched max(A, B). ok is false when the
// operands are essentially the same random variable up to a mean shift
// (theta ~ 0): max(A, B) is then A when tp == 1 and B when tp == 0.
//
// The min kernels pass negated means and negate the returned mean: min(A,
// B) = -max(-A, -B), with the same variances and covariance. Negation is
// exact in floating point, so this is bit-identical to writing the min
// algebra out with mirrored signs.
func clarkMoments(va, vb, cov, ma, mb float64) (tp, mean, variance float64, ok bool) {
	theta := thetaOf(va, vb, cov)
	if theta < thetaEps {
		if mb > ma {
			return 0, 0, 0, false
		}
		return 1, 0, 0, false
	}
	z := (ma - mb) / theta
	tp, phi := stats.NormTP(z)
	mean = tp*ma + (1-tp)*mb + theta*phi
	second := tp*(va+ma*ma) + (1-tp)*(vb+mb*mb) + (ma+mb)*theta*phi
	variance = second - mean*mean
	if variance < 0 {
		variance = 0
	}
	return tp, mean, variance, true
}

// matchedRand returns the private coefficient that lifts a blended form's
// shared energy to the Clark variance. When the blended shared part already
// exceeds it, the closest representable form drops the private part; this
// over-estimates variance slightly and is the standard fix.
func matchedRand(variance, shared float64) float64 {
	rest := variance - shared
	if rest < 0 {
		rest = 0
	}
	return math.Sqrt(rest)
}

// MaxAll folds Max over a non-empty slice of forms.
func MaxAll(fs []*Form) (*Form, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("canon: MaxAll of empty slice")
	}
	out := fs[0].Clone()
	for _, f := range fs[1:] {
		MaxInto(out, out, f)
	}
	return out, nil
}

// Min returns the moment-matched statistical minimum of two forms — the
// Clark dual of Max via min(A, B) = -max(-A, -B) — used by earliest-arrival
// propagation and worst-slack folds.
func Min(a, b *Form) *Form {
	out := a.Clone()
	MinInto(out, a, b)
	return out
}

// MinInto computes min(a, b) into dst: MinViews on the staged operands.
// dst may alias a or b. It is the Clark dual of MaxInto, min(A, B) =
// -max(-A, -B): the tightness becomes P(A <= B), and blend and variance
// matching are shared.
func MinInto(dst, a, b *Form) { clarkInto(dst, a, b, -1) }

// MinAll folds a slice of forms with MinInto, left to right — the
// worst-slack aggregation over registers.
func MinAll(fs []*Form) (*Form, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("canon: MinAll of empty slice")
	}
	out := fs[0].Clone()
	for _, f := range fs[1:] {
		MinInto(out, out, f)
	}
	return out, nil
}

// Sub returns a - b as a canonical form: coefficients subtract and the
// private random parts combine by root-sum-of-squares (a and b are
// independent in their private parts). This is the slack algebra —
// e.g. slack = constraint - arrival.
func Sub(a, b *Form) *Form {
	out := a.Clone()
	out.Nominal = a.Nominal - b.Nominal
	for i := range out.Glob {
		out.Glob[i] = a.Glob[i] - b.Glob[i]
	}
	for i := range out.Loc {
		out.Loc[i] = a.Loc[i] - b.Loc[i]
	}
	out.Rand = math.Sqrt(a.Rand*a.Rand + b.Rand*b.Rand)
	return out
}

// Sample evaluates the form at a concrete realization of the shared
// variables: g has length Globals, x has length Components, r is the private
// standard normal draw.
func (f *Form) Sample(g, x []float64, r float64) float64 {
	v := f.Nominal
	for i, c := range f.Glob {
		v += c * g[i]
	}
	for i, c := range f.Loc {
		v += c * x[i]
	}
	return v + f.Rand*r
}

// CDF returns the Gaussian CDF of the form evaluated at t.
func (f *Form) CDF(t float64) float64 {
	sd := f.Std()
	if sd == 0 {
		if t >= f.Nominal {
			return 1
		}
		return 0
	}
	return stats.NormCDF((t - f.Nominal) / sd)
}

// Quantile returns the Gaussian p-quantile of the form.
func (f *Form) Quantile(p float64) float64 {
	return f.Nominal + f.Std()*stats.NormQuantile(p)
}

// String renders a compact human-readable description.
func (f *Form) String() string {
	return fmt.Sprintf("N(%.4g, %.4g^2)", f.Mean(), f.Std())
}
