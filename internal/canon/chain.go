package canon

import (
	"math"

	"repro/internal/stats"
)

// This file holds the tracked-variance kernels of the criticality chain
// evaluator. The cutset-complement construction folds long Clark max chains
// (prefix/suffix maxima over a boundary's crossing-edge path delays) and a
// per-home-edge tightness against the merged complement. Recomputing each
// operand's variance inside every step — what MaxViews/TightnessProbViews
// do — performs three dot products per step where one suffices: a Clark
// step knows its output variance in closed form (shared blend energy plus
// the matched private remainder), so the chain can carry variances forward
// and each step only needs the fresh covariance dot. The home-edge
// evaluation goes further: the merged complement max(P, S) is never
// materialized at all — its Clark parameters, and the tightness of the
// home delay against it, are scalar functions of the three pairwise
// covariances (de·P, de·S, P·S), which one fused three-stream pass
// delivers.
//
// Tracked variances are carried as (coeff, rand²) pairs: coeff is the
// shared-coefficient energy Σc² (what covariances are built from), rand²
// the private part. Their sum is the form's variance. The kernels keep the
// Views they write fully materialized (including the private coefficient),
// so a tracked chain slot is still a valid form for any untracked kernel.

// DotCoeffs returns the shared-coefficient dot product Σ a[i]·b[i] — the
// covariance of the two viewed forms (private parts never co-vary). The
// generic loop sums in a different order from VarCovViews', which no
// caller depends on: the tracked chain never compares the two.
func DotCoeffs(a, b View) float64 {
	n := len(a) - 1
	ac, bc := a[1:n], b[1:n]
	if useAsm && len(ac) >= asmMin {
		return dotVec(&ac[0], &bc[0], len(ac))
	}
	return dotGeneric(ac, bc)
}

// AddViewsVar is AddViews with the destination's tracked variance computed
// in the same pass: cv is the shared-coefficient energy of dst, r2 its
// private rand². dst may alias a (but not b).
func AddViewsVar(dst, a, b View) (cv, r2 float64) {
	n := len(dst) - 1
	dst[0] = a[0] + b[0]
	if dc, ac, bc := dst[1:n], a[1:n], b[1:n]; useAsm && len(dc) >= asmMin {
		cv = addSqVec(&dc[0], &ac[0], &bc[0], len(dc))
	} else {
		cv = addSqGeneric(dc, ac, bc)
	}
	ra, rb := a[n], b[n]
	r2 = ra*ra + rb*rb
	dst[n] = math.Sqrt(r2)
	return cv, r2
}

// MaxViewsVar is the tracked-variance Clark step: it computes
// max(a, b) into dst like MaxViews, but takes both operands' tracked
// variances instead of re-deriving them (turning the three-accumulator
// VarCov pass into a single covariance dot) and returns the destination's
// tracked variance for the next step. dst may alias a (but not b).
func MaxViewsVar(dst, a, b View, cvA, r2A, cvB, r2B float64) (cv, r2 float64) {
	va, vb := cvA+r2A, cvB+r2B
	cov := DotCoeffs(a, b)
	t2 := va + vb - 2*cov
	if t2 < 0 {
		t2 = 0
	}
	theta := math.Sqrt(t2)
	if theta < thetaEps {
		if b[0] > a[0] {
			copy(dst, b)
			return cvB, r2B
		}
		copy(dst, a)
		return cvA, r2A
	}
	z := (a[0] - b[0]) / theta
	tp, phi := stats.NormTP(z)

	mean := tp*a[0] + (1-tp)*b[0] + theta*phi
	second := tp*(va+a[0]*a[0]) + (1-tp)*(vb+b[0]*b[0]) +
		(a[0]+b[0])*theta*phi
	variance := second - mean*mean
	if variance < 0 {
		variance = 0
	}

	tq := 1 - tp
	n := len(dst) - 1
	if dc, ac, bc := dst[1:n], a[1:n], b[1:n]; useAsm && len(dc) >= asmMin {
		cv = blendSqVec(&dc[0], &ac[0], &bc[0], len(dc), tp, tq)
	} else {
		cv = blendSqGeneric(dc, ac, bc, tp, tq)
	}
	dst[0] = mean
	r2 = variance - cv
	if r2 < 0 {
		// Same representability fix as MaxViews: the blended shared part
		// already exceeds the Clark variance, drop the private part.
		r2 = 0
	}
	dst[n] = math.Sqrt(r2)
	return cv, r2
}

// TightnessProbVar is TightnessProbViews with both operand variances
// supplied: one covariance dot instead of the fused three-dot VarCov pass.
// It also returns the comparison z-score (+-Inf on the degenerate
// branches), which the criticality engine folds alongside the probability
// so its branch-and-bound tests can run in z-space without a CDF call.
func TightnessProbVar(a, b View, va, vb float64) (c, z float64) {
	cov := DotCoeffs(a, b)
	t2 := va + vb - 2*cov
	if t2 < 0 {
		t2 = 0
	}
	theta := math.Sqrt(t2)
	if theta < thetaEps {
		switch {
		case a[0] > b[0]:
			return 1, math.Inf(1)
		case a[0] < b[0]:
			return 0, math.Inf(-1)
		default:
			return 0.5, 0
		}
	}
	z = (a[0] - b[0]) / theta
	c, _ = stats.NormTP(z)
	return c, z
}

// CompTightnessViews returns P(de >= max(p, s)) — the home-edge
// criticality against its merged prefix/suffix complement — without
// materializing the merged form. One fused pass yields the three pairwise
// covariances; Clark's moment matching then gives the complement's mean
// and representable variance, and the blend linearity gives its covariance
// with de, all as scalars:
//
//	cov(de, max(p,s)) = tp·cov(de,p) + (1-tp)·cov(de,s)
//	cv(max(p,s))      = tp²·cv(p) + 2tp(1-tp)·cov(p,s) + (1-tp)²·cv(s)
//
// The degenerate branches mirror the materialized path exactly: a
// theta-collapsed complement pair reduces to the larger-mean operand, and
// a theta-collapsed final comparison falls back to the nominal ordering.
// vDe is de's variance; (cvP, r2P) and (cvS, r2S) are the operands'
// tracked variances. Like TightnessProbVar it also returns the final
// comparison z-score for the caller's z-space fold.
func CompTightnessViews(de, p, s View, vDe, cvP, r2P, cvS, r2S float64) (c, z float64) {
	var covDeP, covDeS, covPS float64
	n := len(de) - 1
	if dc, pc, sc := de[1:n], p[1:n], s[1:n]; useAsm && len(dc) >= asmMin {
		covDeP, covDeS, covPS = dot3Vec(&dc[0], &pc[0], &sc[0], len(dc))
	} else {
		covDeP, covDeS, covPS = dot3Generic(dc, pc, sc)
	}
	vP, vS := cvP+r2P, cvS+r2S

	t2 := vP + vS - 2*covPS
	if t2 < 0 {
		t2 = 0
	}
	theta := math.Sqrt(t2)

	var meanC, vC, covDeC float64
	if theta < thetaEps {
		// The complement pair collapses to whichever operand has the larger
		// mean (MaxViews' degenerate copy).
		if s[0] > p[0] {
			meanC, vC, covDeC = s[0], vS, covDeS
		} else {
			meanC, vC, covDeC = p[0], vP, covDeP
		}
	} else {
		zc := (p[0] - s[0]) / theta
		tp, phi := stats.NormTP(zc)
		tq := 1 - tp

		meanC = tp*p[0] + tq*s[0] + theta*phi
		second := tp*(vP+p[0]*p[0]) + tq*(vS+s[0]*s[0]) +
			(p[0]+s[0])*theta*phi
		variance := second - meanC*meanC
		if variance < 0 {
			variance = 0
		}
		cvC := tp*tp*cvP + 2*tp*tq*covPS + tq*tq*cvS
		r2C := variance - cvC
		if r2C < 0 {
			r2C = 0 // representability clip, as in the materialized blend
		}
		vC = cvC + r2C
		covDeC = tp*covDeP + tq*covDeS
	}

	t2 = vDe + vC - 2*covDeC
	if t2 < 0 {
		t2 = 0
	}
	thetaT := math.Sqrt(t2)
	if thetaT < thetaEps {
		switch {
		case de[0] > meanC:
			return 1, math.Inf(1)
		case de[0] < meanC:
			return 0, math.Inf(-1)
		default:
			return 0.5, 0
		}
	}
	z = (de[0] - meanC) / thetaT
	c, _ = stats.NormTP(z)
	return c, z
}
