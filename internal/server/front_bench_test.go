package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/ssta"
)

// BenchmarkBatchedFront measures aggregate throughput of 8 concurrent
// compatible requests — single-scenario MCMM sweeps against the same
// hierarchical quad design, each with a different derate — served
// per-request versus micro-batched. Per-request, every sweep pays its own
// design stitch (boundary conditions + per-edge rewrite + propagation;
// the geometry/PCA prep cache is warm in both arms); batched, the 8
// callers merge into ONE shared-prep sweep: one stitch, then 8
// propagation passes that rescale the shared delay bank as they read it.
// One iteration = all 8 requests answered.
func BenchmarkBatchedFront(b *testing.B) {
	reqs := make([][]byte, 8)
	for i := range reqs {
		body, err := json.Marshal(SweepRequest{
			ItemSpec: ItemSpec{Quad: &QuadSpec{Bench: "c1355", Seed: 1}},
			Scenarios: []SweepScenarioSpec{
				{ScenarioSpec: ssta.ScenarioSpec{Name: fmt.Sprintf("corner-%d", i), Derate: 1 + 0.02*float64(i)}},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = body
	}

	fire := func(b *testing.B, url string) {
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				r, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				data, _ := io.ReadAll(r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					b.Errorf("status %d: %s", r.StatusCode, data)
				}
			}(reqs[i])
		}
		wg.Wait()
	}

	run := func(b *testing.B, cfg Config) {
		s := New(cfg)
		hs := httptest.NewServer(s.Handler())
		defer func() {
			hs.Close()
			s.Close()
		}()
		fire(b, hs.URL) // warm the design/extract/prep caches in both arms
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			fire(b, hs.URL)
		}
	}

	b.Run("independent", func(b *testing.B) {
		run(b, Config{MaxConcurrent: 8})
	})
	b.Run("batched", func(b *testing.B) {
		run(b, Config{MaxConcurrent: 8, BatchMax: 8, BatchWindow: 20 * time.Millisecond})
	})
}
