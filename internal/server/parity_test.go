package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"
)

// runJob submits req as an async job and polls it to a terminal state,
// returning the submit status and the finished job.
func runJob(t *testing.T, base string, req AnalyzeRequest) (int, JobView) {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/jobs", req)
	var v JobView
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, v
	}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for v.Status == JobQueued || v.Status == JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", v.Status)
		}
		time.Sleep(2 * time.Millisecond)
		r, data := httpGet(t, base+"/v1/jobs/"+v.ID)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", r.StatusCode, data)
		}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v
}

// sameItem asserts two analyze item results agree: names, errors, graph
// and model sizes exactly, statistics and slack views at 1e-9.
func sameItem(t *testing.T, label string, got, want ItemResult) {
	t.Helper()
	if got.Name != want.Name || got.Error != want.Error {
		t.Fatalf("%s: item %q error %q, want %q error %q", label, got.Name, got.Error, want.Name, want.Error)
	}
	if got.Verts != want.Verts || got.Edges != want.Edges || got.ModelVerts != want.ModelVerts || got.ModelEdges != want.ModelEdges {
		t.Fatalf("%s: sizes %d/%d model %d/%d, want %d/%d model %d/%d", label,
			got.Verts, got.Edges, got.ModelVerts, got.ModelEdges, want.Verts, want.Edges, want.ModelVerts, want.ModelEdges)
	}
	eq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
	if !eq(got.MeanPS, want.MeanPS) || !eq(got.StdPS, want.StdPS) || !eq(got.P9987PS, want.P9987PS) {
		t.Fatalf("%s: delay (%g, %g, %g), want (%g, %g, %g)", label,
			got.MeanPS, got.StdPS, got.P9987PS, want.MeanPS, want.StdPS, want.P9987PS)
	}
	for _, sv := range []struct {
		name      string
		got, want *SlackView
	}{{"setup", got.Setup, want.Setup}, {"hold", got.Hold, want.Hold}} {
		if (sv.got == nil) != (sv.want == nil) {
			t.Fatalf("%s: %s slack present=%v, want %v", label, sv.name, sv.got != nil, sv.want != nil)
		}
		if sv.got != nil && (!eq(sv.got.MeanPS, sv.want.MeanPS) || !eq(sv.got.StdPS, sv.want.StdPS) || !eq(sv.got.QPS, sv.want.QPS)) {
			t.Fatalf("%s: %s slack %+v, want %+v", label, sv.name, *sv.got, *sv.want)
		}
	}
}

// TestAnalyzeParityMatrix pins the one analyze contract: every item kind,
// alone and in a three-item request, answers the same status and the same
// ItemResult whether batching is on or off, whether it runs sync or as a
// job, and whether a standalone server or a coordinator over two workers
// serves it. An unknown bench is an item error with a 200 everywhere.
func TestAnalyzeParityMatrix(t *testing.T) {
	kinds := map[string]ItemSpec{
		"plain":       {Bench: "c432", Seed: 1},
		"extract":     {Bench: "c880", Seed: 2, Extract: true},
		"clocked":     {Bench: "c432", Seed: 1, Clocked: true},
		"quad-full":   {Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "full"},
		"quad-global": {Quad: &QuadSpec{Bench: "c432", Seed: 1}, Mode: "global"},
		"bad":         {Bench: "no-such-bench"},
	}
	bodies := map[string]AnalyzeRequest{}
	for name, spec := range kinds {
		bodies[name] = AnalyzeRequest{Items: []ItemSpec{spec}}
	}
	for name, set := range map[string][]string{
		"3-flat":  {"plain", "extract", "clocked"},
		"3-quad":  {"quad-full", "quad-global", "plain"},
		"3-mixed": {"bad", "clocked", "quad-full"},
	} {
		req := AnalyzeRequest{Workers: 3}
		for _, k := range set {
			req.Items = append(req.Items, kinds[k])
		}
		bodies[name] = req
	}

	_, plain := newTestServer(t, Config{MaxConcurrent: 4})
	_, batched := newTestServer(t, Config{MaxConcurrent: 4, BatchWindow: 5 * time.Millisecond})
	_, _, coord := startCluster(t, 2, Config{MaxConcurrent: 4}, nil)
	_, _, coordBatched := startCluster(t, 2, Config{MaxConcurrent: 4, BatchWindow: 5 * time.Millisecond}, nil)
	bases := map[string]string{
		"plain":           plain.URL,
		"batched":         batched.URL,
		"cluster":         coord.URL,
		"cluster-batched": coordBatched.URL,
	}

	for name, req := range bodies {
		resp, data := postJSON(t, plain.URL+"/v1/analyze", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: reference status %d: %s", name, resp.StatusCode, data)
		}
		var want AnalyzeResponse
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != len(req.Items) {
			t.Fatalf("%s: %d results for %d items", name, len(want.Results), len(req.Items))
		}
		for k, r := range want.Results {
			if (r.Error != "") != (req.Items[k].Bench == "no-such-bench") {
				t.Fatalf("%s item %d: reference error %q", name, k, r.Error)
			}
		}
		check := func(label string, status int, got *AnalyzeResponse) {
			t.Helper()
			if status != http.StatusOK {
				t.Fatalf("%s: status %d, want 200", label, status)
			}
			if got == nil || len(got.Results) != len(want.Results) {
				t.Fatalf("%s: answer %+v", label, got)
			}
			for k := range want.Results {
				sameItem(t, fmt.Sprintf("%s item %d", label, k), got.Results[k], want.Results[k])
			}
		}
		for srv, base := range bases {
			if srv != "plain" {
				resp, data := postJSON(t, base+"/v1/analyze", req)
				var got AnalyzeResponse
				if resp.StatusCode == http.StatusOK {
					if err := json.Unmarshal(data, &got); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("%s sync on %s", name, srv), resp.StatusCode, &got)
			}
			status, job := runJob(t, base, req)
			if status != http.StatusAccepted || job.Status != JobDone {
				t.Fatalf("%s job on %s: submit %d, ended %q (%s)", name, srv, status, job.Status, job.Error)
			}
			check(fmt.Sprintf("%s job on %s", name, srv), http.StatusOK, job.Result)
		}
	}
}
