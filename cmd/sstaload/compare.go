package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadSide reads one side of a comparison: a directory of results files
// (every *.json in name order) or a comma-separated list of files. It
// returns, per workload and metric, the values in run order.
func loadSide(arg string) (map[string]map[string][]float64, error) {
	var files []string
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		m, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(m)
		files = m
	} else {
		for _, f := range strings.Split(arg, ",") {
			if f = strings.TrimSpace(f); f != "" {
				files = append(files, f)
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no results files in %q", arg)
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], v.Value)
			}
		}
	}
	return out, nil
}

// verdict classifies side B against side A (the parent) for one metric:
//
//   - improved: B wins at least 9 in 10 of the paired runs (ties count for
//     neither) and the medians differ by more than A's quartile spread;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unresolved: A's own quartile spread exceeds the bound, unless every
//     run of B is better than every run of A;
//   - unchanged: otherwise.
//
// A metric with no bound (NaN) can only be found improved; otherwise its
// verdict is "-".
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, won, pairs int) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			won++
		}
	}
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	spread := a3 - a1
	worse := bm - am
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && float64(won) >= 0.9*float64(pairs) && math.Abs(bm-am) > spread:
		return "improved", won, pairs
	case math.IsNaN(bound):
		return "-", won, pairs
	case worse > bound*math.Abs(am):
		return "regressed", won, pairs
	case spread > bound*math.Abs(am) && !allBetter:
		return "unresolved", won, pairs
	}
	return "unchanged", won, pairs
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the pairs B won and the verdict against the bound
// BENCHMARK.json fixes (none for p50_ms and p99_ms, which it does not
// gate); per-layer metrics present on both sides are listed without a
// verdict.
func runCompare(w io.Writer, spec *benchSpec, sideA, sideB string) error {
	a, err := loadSide(sideA)
	if err != nil {
		return err
	}
	b, err := loadSide(sideB)
	if err != nil {
		return err
	}
	bounds := map[string]metricSpec{
		"error_ratio": {Name: "error_ratio", Better: "lower"},
		"p50_ms":      {Name: "p50_ms", Better: "lower", Bound: math.NaN()},
		"p99_ms":      {Name: "p99_ms", Better: "lower", Bound: math.NaN()},
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	wls := make([]string, 0, len(a))
	for k := range a {
		if b[k] != nil {
			wls = append(wls, k)
		}
	}
	sort.Strings(wls)
	if len(wls) == 0 {
		return fmt.Errorf("the two sides share no workload")
	}
	fmt.Fprintf(w, "%-14s %-38s %-30s %-30s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won", "verdict")
	for _, wl := range wls {
		names := make([]string, 0)
		for k := range a[wl] {
			if b[wl][k] != nil {
				names = append(names, k)
			}
		}
		sort.Slice(names, func(i, j int) bool {
			_, ei := bounds[names[i]]
			_, ej := bounds[names[j]]
			if ei != ej {
				return ei
			}
			return names[i] < names[j]
		})
		for _, k := range names {
			av, bv := a[wl][k], b[wl][k]
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			v, won, pairs := "-", 0, min(len(av), len(bv))
			if ms, ok := bounds[k]; ok {
				v, won, pairs = verdict(av, bv, ms.Better != "higher", ms.Bound)
			}
			fmt.Fprintf(w, "%-14s %-38s %-30s %-30s %3d/%-3d  %s\n", wl, k,
				fmt.Sprintf("%.4g [%.4g, %.4g]", am, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), won, pairs, v)
		}
	}
	return nil
}
