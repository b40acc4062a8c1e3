package canon

// This file holds the generic loops of the coefficient bodies every kernel
// of the package runs. Each View kernel (bank.go, chain.go) dispatches its
// body itself, once per call: to the vector kernel of asm_amd64.s when
// useAsm (decided at init) holds and the body is at least asmMin long, and
// to the loop here otherwise. The *Form kernels stage their operands into
// Views and call the View kernels, so every kernel of a process runs the
// same arithmetic. The dispatch sits in each kernel rather than in a shared
// helper because a helper does not inline, and the extra call showed on
// the short forms of the criticality chain.

// asmMin is the coefficient count below which the generic loops beat the
// vector kernels' call and reduction overhead.
const asmMin = 8

// addGeneric computes dst = a + b element-wise.
func addGeneric(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// addScaledGeneric computes dst = a + src·k element-wise, rounding the
// product before the add (the conversion forbids an FMA).
func addScaledGeneric(dst, a, src []float64, k float64) {
	for i := range dst {
		dst[i] = a[i] + float64(src[i]*k)
	}
}

// varCovGeneric returns Σa², Σb² and Σab in one pass.
func varCovGeneric(a, b []float64) (va, vb, cov float64) {
	b = b[:len(a)]
	for i, x := range a {
		y := b[i]
		va += x * x
		vb += y * y
		cov += x * y
	}
	return va, vb, cov
}

// dotGeneric returns Σ a[i]·b[i]; its four unrolled accumulators break the
// add dependency chain.
func dotGeneric(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot3Generic returns the three pairwise dots de·p, de·s and p·s of one
// pass over three streams.
func dot3Generic(de, p, s []float64) (dp, ds, ps float64) {
	n := len(de)
	p, s = p[:n], s[:n]
	var dp0, dp1, ds0, ds1, ps0, ps1 float64
	i := 0
	for ; i+1 < n; i += 2 {
		d0, p0, q0 := de[i], p[i], s[i]
		d1, p1, q1 := de[i+1], p[i+1], s[i+1]
		dp0 += d0 * p0
		ds0 += d0 * q0
		ps0 += p0 * q0
		dp1 += d1 * p1
		ds1 += d1 * q1
		ps1 += p1 * q1
	}
	for ; i < n; i++ {
		d, pp, q := de[i], p[i], s[i]
		dp0 += d * pp
		ds0 += d * q
		ps0 += pp * q
	}
	return dp0 + dp1, ds0 + ds1, ps0 + ps1
}

// addSqGeneric computes dst = a + b and returns Σdst².
func addSqGeneric(dst, a, b []float64) float64 {
	n := len(dst)
	a, b = a[:n], b[:n]
	var c0, c1, c2, c3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		x0 := a[i] + b[i]
		x1 := a[i+1] + b[i+1]
		x2 := a[i+2] + b[i+2]
		x3 := a[i+3] + b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = x0, x1, x2, x3
		c0 += x0 * x0
		c1 += x1 * x1
		c2 += x2 * x2
		c3 += x3 * x3
	}
	for ; i < n; i++ {
		x := a[i] + b[i]
		dst[i] = x
		c0 += x * x
	}
	return (c0 + c1) + (c2 + c3)
}

// blendSqGeneric computes the Clark blend dst = tp·a + tq·b (paper eq. 9)
// and returns Σdst².
func blendSqGeneric(dst, a, b []float64, tp, tq float64) float64 {
	n := len(dst)
	a, b = a[:n], b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		c0 := tp*a[i] + tq*b[i]
		c1 := tp*a[i+1] + tq*b[i+1]
		c2 := tp*a[i+2] + tq*b[i+2]
		c3 := tp*a[i+3] + tq*b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = c0, c1, c2, c3
		s0 += c0 * c0
		s1 += c1 * c1
		s2 += c2 * c2
		s3 += c3 * c3
	}
	for ; i < n; i++ {
		c := tp*a[i] + tq*b[i]
		dst[i] = c
		s0 += c * c
	}
	return (s0 + s1) + (s2 + s3)
}
