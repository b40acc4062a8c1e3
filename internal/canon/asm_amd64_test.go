//go:build amd64 && !purego

package canon

import (
	"math"
	"math/rand"
	"testing"
)

// TestAsmKernelsMatchGeneric pins the vector kernels against straight
// scalar evaluation over every length around the dispatch threshold and
// the c7552-sized body, including the unaligned tails. Lane-parallel
// summation reorders the reductions, so their contract is relative
// closeness; the element-wise adds (addVec, addScaledVec) multiply and add
// with separate roundings and must equal the scalar loop bit for bit.
func TestAsmKernelsMatchGeneric(t *testing.T) {
	if !useAsm {
		t.Skip("no AVX2/FMA on this machine")
	}
	rng := rand.New(rand.NewSource(41))
	close := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*(1+math.Abs(want))
	}
	for n := 1; n <= 130; n++ {
		// Shift the operands by 0-3 words so the 32-byte loads start at
		// every alignment a bank slot can have.
		off := n % 4
		a := make([]float64, n+off)[off:]
		b := make([]float64, n+off)[off:]
		c := make([]float64, n+off)[off:]
		dst := make([]float64, n+off)[off:]
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			c[i] = rng.NormFloat64()
		}

		var dot, dp, ds, ps, add, blend float64
		tp := rng.Float64()
		tq := 1 - tp
		for i := range a {
			dot += a[i] * b[i]
			dp += a[i] * b[i]
			ds += a[i] * c[i]
			ps += b[i] * c[i]
			x := a[i] + b[i]
			add += x * x
			y := tp*a[i] + tq*b[i]
			blend += y * y
		}

		if got := dotVec(&a[0], &b[0], n); !close(got, dot) {
			t.Fatalf("n=%d: dotVec %g want %g", n, got, dot)
		}
		gdp, gds, gps := dot3Vec(&a[0], &b[0], &c[0], n)
		if !close(gdp, dp) || !close(gds, ds) || !close(gps, ps) {
			t.Fatalf("n=%d: dot3Vec (%g,%g,%g) want (%g,%g,%g)", n, gdp, gds, gps, dp, ds, ps)
		}
		if got := addSqVec(&dst[0], &a[0], &b[0], n); !close(got, add) {
			t.Fatalf("n=%d: addSqVec %g want %g", n, got, add)
		}
		for i := range dst {
			if want := a[i] + b[i]; dst[i] != want {
				t.Fatalf("n=%d: addSqVec dst[%d] = %g want %g", n, i, dst[i], want)
			}
		}
		if got := blendSqVec(&dst[0], &a[0], &b[0], n, tp, tq); !close(got, blend) {
			t.Fatalf("n=%d: blendSqVec %g want %g", n, got, blend)
		}
		for i := range dst {
			want := tp*a[i] + tq*b[i]
			if d := math.Abs(dst[i] - want); d > 1e-15*(1+math.Abs(want)) {
				t.Fatalf("n=%d: blendSqVec dst[%d] = %g want %g", n, i, dst[i], want)
			}
		}
		gva, gvb, gcov := varCovVec(&a[0], &b[0], n)
		var wva, wvb, wcov float64
		for i := range a {
			wva += a[i] * a[i]
			wvb += b[i] * b[i]
			wcov += a[i] * b[i]
		}
		if !close(gva, wva) || !close(gvb, wvb) || !close(gcov, wcov) {
			t.Fatalf("n=%d: varCovVec (%g,%g,%g) want (%g,%g,%g)", n, gva, gvb, gcov, wva, wvb, wcov)
		}
		addVec(&dst[0], &a[0], &b[0], n)
		for i := range dst {
			if want := a[i] + b[i]; dst[i] != want {
				t.Fatalf("n=%d: addVec dst[%d] = %g want %g", n, i, dst[i], want)
			}
		}
		k := 3 * rng.NormFloat64()
		addScaledVec(&dst[0], &a[0], &c[0], n, k)
		for i := range dst {
			if want := a[i] + float64(c[i]*k); dst[i] != want {
				t.Fatalf("n=%d: addScaledVec dst[%d] = %g want %g", n, i, dst[i], want)
			}
		}
		// In-place form: dst aliasing a, as MaxViewsVar chains and the
		// walker's folds do.
		ac := append([]float64(nil), a...)
		if got := addSqVec(&ac[0], &ac[0], &b[0], n); !close(got, add) {
			t.Fatalf("n=%d: aliased addSqVec %g want %g", n, got, add)
		}
		copy(ac, a)
		if got := blendSqVec(&ac[0], &ac[0], &b[0], n, tp, tq); !close(got, blend) {
			t.Fatalf("n=%d: aliased blendSqVec %g want %g", n, got, blend)
		}
		copy(ac, a)
		addVec(&ac[0], &ac[0], &b[0], n)
		for i := range ac {
			if want := a[i] + b[i]; ac[i] != want {
				t.Fatalf("n=%d: aliased addVec dst[%d] = %g want %g", n, i, ac[i], want)
			}
		}
		copy(ac, a)
		addScaledVec(&ac[0], &ac[0], &c[0], n, k)
		for i := range ac {
			if want := a[i] + float64(c[i]*k); ac[i] != want {
				t.Fatalf("n=%d: aliased addScaledVec dst[%d] = %g want %g", n, i, ac[i], want)
			}
		}
	}
}
