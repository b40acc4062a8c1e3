package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 over fewer than 1000 samples would rest on a handful of requests.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples
// sorted ascending. It refuses when fewer than minTail samples lie beyond
// the rank, so a tail percentile is never read off too few requests.
// Failed requests enter as +Inf and sort last.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minTail, beyond, n)
	}
	return sorted[k], nil
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the plain middle value (mean of the two middles for even n);
// NaN for no samples. Used for repeated in-process measurements, where
// every sample is finite and the tail rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile with the
// "exclusive" method of Python's statistics.quantiles(n=4), so the spreads
// this program reports match the ones an outside checker computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// relClose reports whether got equals want to rel relative tolerance
// (absolute near zero).
func relClose(got, want, rel float64) bool {
	d := math.Abs(got - want)
	return d <= rel*math.Max(math.Abs(want), 1e-12)
}
