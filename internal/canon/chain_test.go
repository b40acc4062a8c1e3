package canon

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// randChainViews fills a bank with random forms over a mid-sized space and
// returns the views plus their tracked (coeff, rand²) variances.
func randChainViews(rng *rand.Rand, bank *Bank, n int) ([]View, []float64, []float64) {
	vs := make([]View, n)
	cv := make([]float64, n)
	r2 := make([]float64, n)
	for i := range vs {
		v := bank.Take()
		v[0] = 50 + 10*rng.NormFloat64()
		var c float64
		for k := 1; k < len(v)-1; k++ {
			v[k] = rng.NormFloat64()
			c += v[k] * v[k]
		}
		r := math.Abs(rng.NormFloat64())
		v[len(v)-1] = r
		vs[i], cv[i], r2[i] = v, c, r*r
	}
	return vs, cv, r2
}

// TestTrackedKernelsMatchMaterialized drives the tracked-variance chain
// kernels against the materialized reference path (AddViews + MaxViews +
// TightnessProbViews) over random operands: identical degenerate branch
// selection and values within accumulation-order rounding.
func TestTrackedKernelsMatchMaterialized(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(11))
	space := Space{Globals: 3, Components: 20}
	bank := NewBank(space, 64)
	for trial := 0; trial < 200; trial++ {
		bank.Reset()
		ops, cv, r2 := randChainViews(rng, bank, 4)
		a, b, c, d := ops[0], ops[1], ops[2], ops[3]

		// AddViewsVar vs AddViews + recomputed variance.
		sumT, sumM := bank.Take(), bank.Take()
		scv, sr2 := AddViewsVar(sumT, a, b)
		AddViews(sumM, a, b)
		for k := range sumM {
			if sumT[k] != sumM[k] {
				t.Fatalf("trial %d: AddViewsVar word %d: %g != %g", trial, k, sumT[k], sumM[k])
			}
		}
		if dv := math.Abs((scv + sr2) - sumM.Variance()); dv > tol {
			t.Fatalf("trial %d: tracked add variance off by %g", trial, dv)
		}

		// MaxViewsVar vs MaxViews.
		maxT, maxM := bank.Take(), bank.Take()
		mcv, mr2 := MaxViewsVar(maxT, a, b, cv[0], r2[0], cv[1], r2[1])
		MaxViews(maxM, a, b)
		for k := range maxM {
			if diff := math.Abs(maxT[k] - maxM[k]); diff > tol {
				t.Fatalf("trial %d: MaxViewsVar word %d: %g vs %g", trial, k, maxT[k], maxM[k])
			}
		}
		if dv := math.Abs((mcv + mr2) - maxM.Variance()); dv > tol {
			t.Fatalf("trial %d: tracked max variance off by %g", trial, dv)
		}

		// TightnessProbVar's z through the engine's CDF vs
		// TightnessProbViews.
		tpT := TightnessCDF(TightnessProbVar(c, d, cv[2]+r2[2], cv[3]+r2[3]))
		tpM := TightnessProbViews(c, d)
		if math.Abs(tpT-tpM) > tol {
			t.Fatalf("trial %d: TightnessProbVar %g vs %g", trial, tpT, tpM)
		}

		// CompTightnessViews vs materialized MaxViews + TightnessProbViews.
		comp := bank.Take()
		MaxViews(comp, b, c)
		want := TightnessProbViews(a, comp)
		got := TightnessCDF(CompTightnessViews(a, b, c, cv[0]+r2[0], cv[1], r2[1], cv[2], r2[2]))
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d: CompTightnessViews %g vs %g", trial, got, want)
		}
	}
}

// TestTrackedChainMatchesMaterializedChain folds a long prefix chain both
// ways — tracked steps vs materialized MaxViews with recomputed variances —
// and requires the end-of-chain tightness to agree. This is the exact
// pattern the criticality engine runs per cutset boundary.
func TestTrackedChainMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	space := Space{Globals: 2, Components: 30}
	const m = 40
	bank := NewBank(space, 3*m)
	ops, cv, r2 := randChainViews(rng, bank, m)

	chT := make([]View, m)
	chM := make([]View, m)
	for i := range chT {
		chT[i], chM[i] = bank.Take(), bank.Take()
	}
	CopyView(chT[0], ops[0])
	CopyView(chM[0], ops[0])
	ccv, cr2 := cv[0], r2[0]
	for i := 1; i < m; i++ {
		ccv, cr2 = MaxViewsVar(chT[i], chT[i-1], ops[i], ccv, cr2, cv[i], r2[i])
		MaxViews(chM[i], chM[i-1], ops[i])
	}
	for k := range chM[m-1] {
		if diff := math.Abs(chT[m-1][k] - chM[m-1][k]); diff > 1e-7 {
			t.Fatalf("chain word %d drifted: %g vs %g", k, chT[m-1][k], chM[m-1][k])
		}
	}
	if dv := math.Abs((ccv + cr2) - chM[m-1].Variance()); dv > 1e-7 {
		t.Fatalf("tracked chain variance drifted by %g", dv)
	}
	probe, pcv, pr2 := ops[m/2], cv[m/2], r2[m/2]
	tpT := TightnessCDF(TightnessProbVar(probe, chT[m-1], pcv+pr2, ccv+cr2))
	tpM := TightnessProbViews(probe, chM[m-1])
	if math.Abs(tpT-tpM) > 1e-9 {
		t.Fatalf("chain tightness %g vs %g", tpT, tpM)
	}
}

// TestDotCoeffsMatchesCov pins DotCoeffs to the straight covariance dot.
func TestDotCoeffsMatchesCov(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, comps := range []int{0, 1, 2, 3, 4, 5, 17, 108} {
		space := Space{Globals: 3, Components: comps}
		bank := NewBank(space, 2)
		a, b := bank.Take(), bank.Take()
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		got := DotCoeffs(a, b)
		want := CovViews(a, b)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("comps=%d: DotCoeffs %g vs CovViews %g", comps, got, want)
		}
	}
}

// TestTightnessCDF pins the z-score to probability map the criticality
// engine folds with: the degenerate scores keep their explicit values, and
// every finite score is the engine's CDF bit for bit (a tie's 0 included,
// so a degenerate tie and a finite z of 0 cannot disagree).
func TestTightnessCDF(t *testing.T) {
	if c := TightnessCDF(math.Inf(1)); c != 1 {
		t.Fatalf("TightnessCDF(+Inf) = %g, want 1", c)
	}
	if c := TightnessCDF(math.Inf(-1)); c != 0 {
		t.Fatalf("TightnessCDF(-Inf) = %g, want 0", c)
	}
	for _, z := range []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0.5, -0.5, 3, -3, 7.07106781186547, -8, 40, -40} {
		want, _ := stats.NormTP(z)
		if got := TightnessCDF(z); got != want {
			t.Fatalf("TightnessCDF(%g) = %g, want NormTP %g", z, got, want)
		}
	}
	if c := TightnessCDF(0); c != 0.5 {
		t.Fatalf("TightnessCDF(0) = %g, want 0.5", c)
	}

	// The degenerate branches of both kernels: equal forms tie, a pure
	// nominal gap orders them outright.
	space := Space{Globals: 1, Components: 2}
	bank := NewBank(space, 3)
	a, b, c := bank.Take(), bank.Take(), bank.Take()
	a[0], b[0], c[0] = 5, 5, 3
	if z := TightnessProbVar(a, b, 0, 0); z != 0 {
		t.Fatalf("tie: z = %g, want 0", z)
	}
	if z := TightnessProbVar(a, c, 0, 0); !math.IsInf(z, 1) {
		t.Fatalf("strict win: z = %g, want +Inf", z)
	}
	if z := CompTightnessViews(c, a, b, 0, 0, 0, 0, 0); !math.IsInf(z, -1) {
		t.Fatalf("strict loss: z = %g, want -Inf", z)
	}
}
