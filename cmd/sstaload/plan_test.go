package main

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// planFor draws one second of a workload's open loop for a seed. Session
// edits need edge counts, which set-up normally reads from the daemon.
func planFor(w *workload, seed int64) []Request {
	st := &state{sessEdges: []int{6144, 6144, 6144, 2939, 2939, 2939, 664, 664}}
	return plan(rand.New(rand.NewSource(seed)), w.newGen(seed, st), w.rate, time.Second)
}

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := planFor(w, 7), planFor(w, 7), planFor(w, 8)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: plans of %d and %d requests", w.name, len(a), len(b))
		}
		same := func(x, y []Request) bool {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i].Due != y[i].Due || x[i].Path != y[i].Path || x[i].Session != y[i].Session ||
					x[i].SSE != y[i].SSE || !bytes.Equal(x[i].Body, y[i].Body) {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("%s: one seed gave two different request streams", w.name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

func TestPlanRateAndMix(t *testing.T) {
	w := workloadByName("analyze-mix")
	reqs := planFor(w, 1)
	if len(reqs) != int(w.rate) {
		t.Fatalf("%d requests in one second at %g/s", len(reqs), w.rate)
	}
	if last := reqs[len(reqs)-1].Due; last < 700*time.Millisecond || last > 1300*time.Millisecond {
		t.Errorf("last arrival at %v for a one-second phase", last)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Due < reqs[i-1].Due {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
}

// Every scale edit is undone by its reciprocal: the restore batch of a
// session generator exactly cancels what is outstanding.
func TestSessionGenRestoreCancels(t *testing.T) {
	g := newSessionGen(3, []int{100, 100, 100, 100, 100, 100, 50, 50})
	product := map[[2]int]float64{}
	apply := func(r Request) {
		if r.Class != "edit" {
			return
		}
		for _, e := range decodeEdits(t, r.Body) {
			k := [2]int{r.Session, e.Edge}
			if product[k] == 0 {
				product[k] = 1
			}
			product[k] *= e.Scale
		}
	}
	for i := 0; i < 2000; i++ {
		apply(g.next())
	}
	for _, r := range g.restore() {
		apply(r)
	}
	for k, p := range product {
		if p != 1 {
			t.Fatalf("session %d edge %d left scaled by %v", k[0], k[1], p)
		}
	}
}
