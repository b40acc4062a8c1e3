package ssta_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/ssta"
)

// ambiguousDesign returns a structurally plausible *Design usable as a
// second input in ambiguity tests. It is never analyzed.
func dummyDesign() *ssta.Design { return &ssta.Design{Name: "dummy"} }

func TestBatchItemAmbiguousInputsRejected(t *testing.T) {
	flow := ssta.DefaultFlow()
	ckt := ssta.C17()
	g, _, err := flow.Graph(ssta.C17())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		item ssta.BatchItem
	}{
		{"Design+Graph", ssta.BatchItem{Design: dummyDesign(), Graph: g}},
		{"Design+Circuit", ssta.BatchItem{Design: dummyDesign(), Circuit: ckt}},
		{"Design+Bench", ssta.BatchItem{Design: dummyDesign(), Bench: "c432"}},
		{"Graph+Circuit", ssta.BatchItem{Graph: g, Circuit: ckt}},
		{"Graph+Bench", ssta.BatchItem{Graph: g, Bench: "c432"}},
		{"Circuit+Bench", ssta.BatchItem{Circuit: ckt, Bench: "c432"}},
		{"All", ssta.BatchItem{Design: dummyDesign(), Graph: g, Circuit: ckt, Bench: "c432"}},
	}
	for _, tc := range cases {
		res := flow.AnalyzeBatch([]ssta.BatchItem{tc.item}, ssta.BatchOptions{Workers: 1})
		if res[0].Err == nil {
			t.Fatalf("%s: ambiguous item accepted", tc.name)
		}
		if !strings.Contains(res[0].Err.Error(), "exactly one") {
			t.Fatalf("%s: error does not explain the contract: %v", tc.name, res[0].Err)
		}
		for _, want := range strings.Split(tc.name, "+") {
			if want == "All" {
				continue
			}
			if !strings.Contains(res[0].Err.Error(), want) {
				t.Fatalf("%s: error does not name input %s: %v", tc.name, want, res[0].Err)
			}
		}
		if res[0].Delay != nil || res[0].Graph != nil {
			t.Fatalf("%s: ambiguous item still produced results", tc.name)
		}
	}
}

// TestBatchItemPanicIsolated: a panicking item must land in its
// BatchResult.Err and leave the rest of the batch untouched.
func TestBatchItemPanicIsolated(t *testing.T) {
	flow := ssta.DefaultFlow()
	// A design that passes the input-count validation but panics inside
	// analysis: the instance has a module whose Model is nil, so the port
	// check dereferences a nil pointer.
	boom := &ssta.Design{
		Name: "boom", Width: 10, Height: 10, Pitch: 10,
		Corr: flow.Corr, Params: flow.Lib.Params,
		Instances: []*ssta.Instance{
			{Name: "A", Module: &ssta.Module{Name: "m", NX: 1, NY: 1, Pitch: 10}},
		},
		PrimaryInputs:  []ssta.PortRef{{Instance: "A", Port: "x"}},
		PrimaryOutputs: []ssta.PortRef{{Instance: "A", Port: "y"}},
	}
	items := []ssta.BatchItem{
		{Name: "ok1", Circuit: ssta.C17()},
		{Design: boom},
		{Name: "ok2", Circuit: ssta.C17()},
	}
	for _, workers := range []int{1, 3} {
		res := flow.AnalyzeBatch(items, ssta.BatchOptions{Workers: workers})
		if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panic") {
			t.Fatalf("workers=%d: panicking item Err = %v, want panic error", workers, res[1].Err)
		}
		for _, k := range []int{0, 2} {
			if res[k].Err != nil {
				t.Fatalf("workers=%d: healthy item %d failed: %v", workers, k, res[k].Err)
			}
			if res[k].Delay == nil {
				t.Fatalf("workers=%d: healthy item %d has no delay", workers, k)
			}
		}
	}
}

// TestAnalyzeBatchCtxDeadline: an expired deadline short-circuits every
// item with context.DeadlineExceeded instead of running the batch.
func TestAnalyzeBatchCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	items := make([]ssta.BatchItem, 8)
	for k := range items {
		items[k] = ssta.BatchItem{Name: "x", Bench: "c6288", Seed: int64(k)}
	}
	start := time.Now()
	res := ssta.AnalyzeBatchCtx(ctx, items, ssta.BatchOptions{Workers: 2})
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("expired batch took %v", d)
	}
	for k, r := range res {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("item %d: Err = %v, want context.DeadlineExceeded", k, r.Err)
		}
	}
}
