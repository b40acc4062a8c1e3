package canon

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// This file is the flat structure-of-arrays representation of canonical
// forms: a Bank is one contiguous []float64 arena holding many forms at a
// fixed stride, and a View is one form inside it. The fused View kernels
// below (AddViews, MaxViews, VarCovViews, ...) are numerically identical to
// the pointer-based Form kernels — they perform the same floating-point
// operations in the same order — but touch a single cache-friendly slice
// per operand and never allocate. The propagation hot path (timing.Pass,
// the criticality engine, the hierarchical stitcher) runs entirely on
// Views; *Form stays the boundary representation for construction,
// serialization and reporting.

// View is one canonical form in flat storage. Layout, for a space with
// d = Dim() shared variables:
//
//	v[0]        Nominal
//	v[1 : 1+d]  shared coefficients, Glob followed by Loc
//	v[1+d]      Rand (coefficient of the private N(0,1); always >= 0)
//
// A View is only valid against other Views of the same space; the kernels
// panic (via slice bounds) on mismatched lengths.
type View []float64

// Stride returns the number of float64 slots one form of the space
// occupies in flat storage.
func (s Space) Stride() int { return s.Dim() + 2 }

// Nominal returns the mean of the viewed form.
func (v View) Nominal() float64 { return v[0] }

// SetNominal overwrites the nominal value.
func (v View) SetNominal(x float64) { v[0] = x }

// Rand returns the private-random coefficient.
func (v View) Rand() float64 { return v[len(v)-1] }

// Coeffs returns the shared coefficient slice (Glob followed by Loc).
func (v View) Coeffs() []float64 { return v[1 : len(v)-1] }

// SetConst overwrites the view with a deterministic form of value c.
func (v View) SetConst(c float64) {
	for i := range v {
		v[i] = 0
	}
	v[0] = c
}

// Variance returns the variance of the viewed form.
func (v View) Variance() float64 {
	var s float64
	for _, c := range v[1:] {
		s += c * c
	}
	return s
}

// Std returns the standard deviation of the viewed form.
func (v View) Std() float64 { return math.Sqrt(v.Variance()) }

// LoadForm copies a pointer-based form into the view.
func (v View) LoadForm(f *Form) {
	v[0] = f.Nominal
	n := copy(v[1:], f.Glob)
	copy(v[1+n:], f.Loc)
	v[len(v)-1] = f.Rand
}

// Form materializes the view as a heap-allocated pointer form of the space.
func (v View) Form(s Space) *Form {
	f := s.NewForm()
	f.Nominal = v[0]
	n := copy(f.Glob, v[1:])
	copy(f.Loc, v[1+n:])
	f.Rand = v[len(v)-1]
	return f
}

// Alias points f at the view's storage instead of copying it: f.Glob and
// f.Loc become capacity-capped subslices of v, so an append can never spill
// into a neighbouring slot, and Nominal and Rand are copied. The form lives
// as long as the view's storage and must be treated as read-only; this is
// how one slab backs many boundary forms.
func (v View) Alias(s Space, f *Form) *Form {
	g, d := 1+s.Globals, len(v)-1
	f.Nominal, f.Rand = v[0], v[d]
	f.Glob, f.Loc = v[1:g:g], v[g:d:d]
	return f
}

// CopyView copies src into dst.
func CopyView(dst, src View) { copy(dst, src) }

// AddViews computes a+b into dst in one fused pass. dst may alias a (but
// not b). Private random parts combine by root-sum-of-squares.
func AddViews(dst, a, b View) {
	n := len(dst) - 1
	a, b = a[:n+1], b[:n+1] // equal lengths let the compiler drop bounds checks
	for i := 0; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
	ra, rb := a[n], b[n]
	dst[n] = math.Sqrt(ra*ra + rb*rb)
}

// VarCovViews returns Var(a), Var(b) and Cov(a, b) in a single fused pass
// over the coefficient slices.
func VarCovViews(a, b View) (va, vb, cov float64) {
	n := len(a) - 1
	b = b[:n+1] // equal lengths let the compiler drop bounds checks
	for i := 1; i < n; i++ {
		x, y := a[i], b[i]
		va += x * x
		vb += y * y
		cov += x * y
	}
	va += a[n] * a[n]
	vb += b[n] * b[n]
	return va, vb, cov
}

// CovViews returns the covariance of two views.
func CovViews(a, b View) float64 {
	var s float64
	n := len(a) - 1
	for i := 1; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// TightnessProbViews returns TP = P(A >= B) per paper eq. 6, matching
// TightnessProb on the equivalent pointer forms.
func TightnessProbViews(a, b View) float64 {
	va, vb, cov := VarCovViews(a, b)
	t2 := va + vb - 2*cov
	if t2 < 0 {
		t2 = 0
	}
	theta := math.Sqrt(t2)
	if theta < thetaEps {
		switch {
		case a[0] > b[0]:
			return 1
		case a[0] < b[0]:
			return 0
		default:
			return 0.5
		}
	}
	return stats.NormCDF((a[0] - b[0]) / theta)
}

// AddScaledViews computes a + scale(src) into dst in one fused pass, where
// scale multiplies the whole of src by all and its Glob, Loc and Rand
// blocks additionally by glob, loc and rand — a delay derate composed with
// per-block sigma multipliers, the MCMM sweep's per-scenario edge rescale.
// nGlob is the space's Globals count, fixing the Glob/Loc split. The result
// is bit-identical to writing the scaled image of src into its own view and
// then calling AddViews: every product is rounded to float64 before it is
// added (the explicit conversions forbid fusing it into an FMA, which the
// stored intermediate never allowed). dst may alias a (but not src).
func AddScaledViews(dst, a, src View, nGlob int, all, glob, loc, rand float64) {
	n := len(dst) - 1
	a, src = a[:n+1], src[:n+1] // equal lengths let the compiler drop bounds checks
	dst[0] = a[0] + float64(src[0]*all)
	kg := all * glob
	i := 1
	for ; i <= nGlob; i++ {
		dst[i] = a[i] + float64(src[i]*kg)
	}
	kl := all * loc
	for ; i < n; i++ {
		dst[i] = a[i] + float64(src[i]*kl)
	}
	kr := all * rand
	if kr < 0 {
		kr = -kr
	}
	ra, rb := a[n], float64(src[n]*kr)
	dst[n] = math.Sqrt(ra*ra + rb*rb)
}

// MaxViews computes Clark's moment-matched max(a, b) into dst (paper
// eqs. 6-9) in one fused pass: variances, covariance, tightness, blend and
// variance matching without any intermediate allocation. dst may alias a
// (but not b).
func MaxViews(dst, a, b View) { clarkViews(dst, a, b, 1) }

// MinViews computes the moment-matched min(a, b) into dst — the Clark dual
// of MaxViews via min(A, B) = -max(-A, -B) — in the same single fused pass.
// It is the fold of the earliest-arrival (shortest-path) propagation that
// hold analysis needs. dst may alias a (but not b).
func MinViews(dst, a, b View) { clarkViews(dst, a, b, -1) }

// clarkViews is the flat twin of clarkInto: the same operations in the same
// order, so a View result is bit-identical to the Form kernel's.
func clarkViews(dst, a, b View, sign float64) {
	va, vb, cov := VarCovViews(a, b)
	tp, mean, variance, ok := clarkMoments(va, vb, cov, sign*a[0], sign*b[0])
	if !ok {
		src := a
		if tp == 0 {
			src = b
		}
		copy(dst, src)
		return
	}
	var shared float64
	n := len(dst) - 1
	a, b = a[:n], b[:n] // equal lengths let the compiler drop bounds checks
	for i := 1; i < n; i++ {
		c := tp*a[i] + (1-tp)*b[i]
		dst[i] = c
		shared += c * c
	}
	dst[0] = sign * mean
	dst[n] = matchedRand(variance, shared)
}

// Bank is a flat arena of canonical forms: one contiguous backing slice of
// capacity*Stride() float64s, forms addressed by slot index. Banks are the
// allocation-free storage of the propagation hot path — a full forward or
// backward pass writes into one pre-sized bank instead of cloning a form
// per reached vertex.
//
// A Bank is not safe for concurrent use; give each worker its own.
type Bank struct {
	space  Space
	stride int
	data   []float64
	used   int // sequential-Take() high-water mark
}

// NewBank returns a bank with the given number of form slots, all zero.
func NewBank(s Space, capacity int) *Bank {
	return &Bank{space: s, stride: s.Stride(), data: make([]float64, capacity*s.Stride())}
}

// NewBankOver returns a bank of the given capacity backed by buf when buf
// has enough capacity, allocating fresh storage otherwise. The buffer's
// previous contents are left in place — every kernel fully overwrites its
// destination slot, so recycled storage needs no zeroing. This is how the
// propagation pass pool hands slabs from retired graphs to new ones.
func NewBankOver(s Space, capacity int, buf []float64) *Bank {
	need := capacity * s.Stride()
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	return &Bank{space: s, stride: s.Stride(), data: buf[:need]}
}

// Data exposes the backing slab, e.g. for returning it to a recycling
// pool. The bank must not be used afterwards.
func (b *Bank) Data() []float64 { return b.data }

// Space returns the space the bank's forms live in.
func (b *Bank) Space() Space { return b.space }

// Cap returns the number of form slots.
func (b *Bank) Cap() int { return len(b.data) / b.stride }

// View returns the view of slot i. Views remain valid for the lifetime of
// the bank (banks never grow).
func (b *Bank) View(i int) View {
	return b.data[i*b.stride : (i+1)*b.stride]
}

// Reset rewinds the sequential allocator; existing slot contents are
// retained but will be handed out again by Take.
func (b *Bank) Reset() { b.used = 0 }

// Take hands out the next sequential slot. The slot's previous contents
// are undefined — callers must fully overwrite it (every kernel with the
// slot as dst does). Take panics when the bank is exhausted: size banks to
// their workload with NewBank, they never grow.
func (b *Bank) Take() View {
	if (b.used+1)*b.stride > len(b.data) {
		panic(fmt.Sprintf("canon: Bank exhausted (%d slots)", b.Cap()))
	}
	v := b.View(b.used)
	b.used++
	return v
}

// TakeBlock hands out n consecutive slots as one view per slot.
func (b *Bank) TakeBlock(n int) []View {
	out := make([]View, n)
	for i := range out {
		out[i] = b.Take()
	}
	return out
}
