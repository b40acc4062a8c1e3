package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/server"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) accepted")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) accepted")
	}
	withFail := append(xs[:999:999], math.Inf(1))
	if v, _ := percentile(withFail, 0.99); v != 990 {
		t.Fatalf("a failure (+Inf) moved p99 to %v", v)
	}
}

// quartiles must match Python's statistics.quantiles(data, n=4), the
// definition outside checkers use for run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.1, 10, 10.2, 9.9}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, v := range base {
		faster[i], slower[i] = v*0.8, v*1.2
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{{base, "unchanged"}, {faster, "improved"}, {slower, "regressed"}} {
		if v, _, _ := verdict(base, c.b, true, 0.1); v != c.want {
			t.Errorf("verdict = %s, want %s", v, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if v, _, _ := verdict(noisy, noisy, true, 0.1); v != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", v)
	}
	// A metric without a bound (p50_ms, p99_ms) can show a gain, nothing else.
	for _, c := range []struct {
		b    []float64
		want string
	}{{faster, "improved"}, {slower, "-"}, {base, "-"}} {
		if v, _, _ := verdict(base, c.b, true, math.NaN()); v != c.want {
			t.Errorf("no bound: verdict = %s, want %s", v, c.want)
		}
	}
}

func decodeEdits(t *testing.T, body []byte) []server.EditSpec {
	t.Helper()
	var req server.SessionEditRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return req.Edits
}
