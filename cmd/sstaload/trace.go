package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run, as written to trace.jsonl.
// Times are microseconds since the tracer's epoch; parent 0 marks a root.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    string  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run writes them out, so recording
// costs an append under a mutex and no I/O.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its id.
func (t *tracer) add(parent int64, req, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Req: req, Name: name,
		Start: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
	})
	return t.next
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(parent int64, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(parent, "", name, start, end)
	return end.Sub(start), err
}

// layerSummary aggregates the spans of one name for layers.json.
type layerSummary struct {
	Count  int     `json:"count"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
}

// summarize groups spans by name. A span's self time is its duration minus
// the part of its interval its children cover.
func (t *tracer) summarize() map[string]layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	out := map[string]layerSummary{}
	for _, s := range t.spans {
		d := (s.End - s.Start) / 1e3
		self := d - covered(s, children[s.ID])/1e3
		ls := out[s.Name]
		ls.Count++
		ls.BusyMS += d
		ls.SelfMS += self
		out[s.Name] = ls
		durs[s.Name] = append(durs[s.Name], d)
	}
	for name, ls := range out {
		ls.MeanMS = ls.BusyMS / float64(ls.Count)
		ls.P50MS = median(durs[name])
		out[name] = ls
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's (microseconds).
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi float64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// rootCoverage reports, over every root span whose name has the prefix,
// the smallest share of the root's interval that its children cover.
func (t *tracer) rootCoverage(prefix string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	worst := 1.0
	for _, s := range t.spans {
		if s.Parent != 0 || len(s.Name) < len(prefix) || s.Name[:len(prefix)] != prefix {
			continue
		}
		if d := s.End - s.Start; d > 0 {
			worst = min(worst, covered(s, children[s.ID])/d)
		}
	}
	return worst
}

// write stores trace.jsonl (one span per line) and layers.json.
func (t *tracer) write(dir string) error {
	f, err := os.Create(dir + "/trace.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return writeJSONFile(dir+"/layers.json", t.summarize())
}

// writeJSONFile writes v as indented JSON, creating the file's directory.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
