package canon

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// This file is the flat structure-of-arrays representation of canonical
// forms: a Bank is one contiguous []float64 arena holding many forms at a
// fixed stride, and a View is one form inside it. The fused View kernels
// below (AddViews, AddScaledViews, MaxViews, MinViews, VarCovViews,
// TightnessProbViews) touch a single cache-friendly slice per operand,
// never allocate, and run their coefficient bodies on the AVX2 kernels
// where the CPU has them (the generic loops of vec.go otherwise). They are
// the package's one
// arithmetic: the pointer-based Form kernels (MaxInto, MinInto, VarCov,
// TightnessProb, ...) stage their operands into Views and call these same
// kernels, so a View result and the Form result of the same operands are
// bit-identical by construction. The propagation hot path (timing.Pass,
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
	v.storeForm(f)
	return f
}

// storeForm copies the view into an existing pointer form of its space.
func (v View) storeForm(f *Form) {
	f.Nominal = v[0]
	n := copy(f.Glob, v[1:])
	copy(f.Loc, v[1+n:])
	f.Rand = v[len(v)-1]
}

// Alias points f at the view's storage instead of copying it: f.Glob and
// f.Loc become capacity-capped subslices of v, so an append can never spill
// into a neighbouring slot, and Nominal and Rand are copied. The form lives
// as long as the view's storage and must be treated as read-only, and so
// must the storage while the form is in use; this is how one slab backs
// many forms: the register slacks of a sequential analysis, and the edge
// delays of a built timing graph, whose delay bank is their only storage.
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
	dc, ac, bc := dst[:n], a[:n], b[:n] // the nominal and the shared coefficients
	if useAsm && n >= asmMin {
		addVec(&dc[0], &ac[0], &bc[0], n)
	} else {
		addGeneric(dc, ac, bc)
	}
	ra, rb := a[n], b[n]
	dst[n] = math.Sqrt(ra*ra + rb*rb)
}

// VarCovViews returns Var(a), Var(b) and Cov(a, b) in a single fused pass
// over the coefficient slices.
func VarCovViews(a, b View) (va, vb, cov float64) {
	n := len(a) - 1
	b = b[:n+1]
	if ac, bc := a[1:n], b[1:n]; useAsm && len(ac) >= asmMin {
		va, vb, cov = varCovVec(&ac[0], &bc[0], len(ac))
	} else {
		va, vb, cov = varCovGeneric(ac, bc)
	}
	va += a[n] * a[n]
	vb += b[n] * b[n]
	return va, vb, cov
}

// TightnessProbViews returns TP = P(A >= B) per paper eq. 6, with the
// degenerate theta ~ 0 case resolved by comparing means (1/2 on a tie).
func TightnessProbViews(a, b View) float64 {
	va, vb, cov := VarCovViews(a, b)
	theta := thetaOf(va, vb, cov)
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
	c, _ := stats.NormTP((a[0] - b[0]) / theta)
	return c
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
	a, src = a[:n+1], src[:n+1]
	dst[0] = a[0] + float64(src[0]*all)
	g := 1 + nGlob
	kg := all * glob
	if dc, ac, sc := dst[1:g], a[1:g], src[1:g]; useAsm && len(dc) >= asmMin {
		addScaledVec(&dc[0], &ac[0], &sc[0], len(dc), kg)
	} else {
		addScaledGeneric(dc, ac, sc, kg)
	}
	kl := all * loc
	if dc, ac, sc := dst[g:n], a[g:n], src[g:n]; useAsm && len(dc) >= asmMin {
		addScaledVec(&dc[0], &ac[0], &sc[0], len(dc), kl)
	} else {
		addScaledGeneric(dc, ac, sc, kl)
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

// clarkViews is the shared body of MaxViews (sign 1) and MinViews (sign
// -1), and through them of every pointer-based max and min: one fused
// VarCov pass, the Clark moments, and the shared-coefficient blend (eq. 9)
// with the private part matched to the Clark variance.
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
	n := len(dst) - 1
	var shared float64
	if dc, ac, bc := dst[1:n], a[1:n], b[1:n]; useAsm && len(dc) >= asmMin {
		shared = blendSqVec(&dc[0], &ac[0], &bc[0], len(dc), tp, 1-tp)
	} else {
		shared = blendSqGeneric(dc, ac, bc, tp, 1-tp)
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

// Data exposes the backing slab: to read or copy the whole bank at once,
// or to return it to a recycling pool, after which the bank must not be
// used.
func (b *Bank) Data() []float64 { return b.data }

// Space returns the space the bank's forms live in.
func (b *Bank) Space() Space { return b.space }

// Cap returns the number of form slots.
func (b *Bank) Cap() int { return len(b.data) / b.stride }

// View returns the view of slot i. Views remain valid for the lifetime of
// the bank (banks never grow). A view's capacity ends with its slot, so a
// kernel handed views of mismatched spaces panics instead of reading the
// neighbouring slot.
func (b *Bank) View(i int) View {
	end := (i + 1) * b.stride
	return b.data[i*b.stride : end : end]
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
