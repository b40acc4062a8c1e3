package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// postRaw posts a literal JSON body and returns the status and answer.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, data := postJSON(t, url, json.RawMessage(body))
	return resp.StatusCode, string(data)
}

// TestOutOfRangeEdgeScalesRefused: an edge_scales key that indexes no edge
// of the graph its scenario runs on — the flat graph, the shared quad top,
// or a swap scenario's private top — is refused with a 400 naming the key,
// on sweeps (unbatched, batched and through a coordinator) and on session
// sweeps, instead of answering the unit scenario's numbers.
func TestOutOfRangeEdgeScalesRefused(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	_, batched := newTestServer(t, Config{BatchWindow: time.Millisecond})
	_, _, coord := startCluster(t, 2, Config{}, nil)
	quad := `"quad":{"bench":"c432","seed":1},"mode":"full"`
	for _, tc := range []struct{ path, body, key string }{
		{"/v1/sweep", `{"bench":"c432","scenarios":[{"name":"e","edge_scales":{"999999":2.0,"-5":3}}]}`, ""},
		{"/v1/sweep", `{"bench":"c432","scenarios":[{"name":"unit"},{"name":"e","edge_scales":{"3":1.5,"999999":2.0}}]}`, "999999"},
		{"/v1/sweep", `{` + quad + `,"scenarios":[{"name":"unit"},{"name":"e","edge_scales":{"999999":2.0}}]}`, "999999"},
		{"/v1/sweep", `{` + quad + `,"scenarios":[{"name":"eco","edge_scales":{"999999":2.0},"swaps":{"B":{"bench":"c432","seed":2}}}]}`, "999999"},
		{"/v1/sessions", `{"bench":"c432","seed":2,"scenarios":[{"name":"e","edge_scales":{"-5":3}}]}`, "-5"},
		{"/v1/sessions", `{` + quad + `,"scenarios":[{"name":"e","edge_scales":{"999999":2.0}}]}`, "999999"},
	} {
		for name, hs := range map[string]string{"plain": plain.URL, "batched": batched.URL, "coordinator": coord.URL} {
			status, answer := postRaw(t, hs+tc.path, tc.body)
			if status != http.StatusBadRequest || !strings.Contains(answer, "edge_scales key "+tc.key) {
				t.Fatalf("%s POST %s %s: status %d, %s", name, tc.path, tc.body, status, answer)
			}
		}
	}
	// The last edge is in range.
	status, answer := postRaw(t, plain.URL+"/v1/sweep", `{"bench":"c432","scenarios":[{"name":"e","edge_scales":{"0":1.5}}]}`)
	if status != http.StatusOK {
		t.Fatalf("in-range edge scale: status %d, %s", status, answer)
	}
}

// TestHugeFactorsRefused: a scenario factor beyond scenario.MaxKnob, or a
// session edit whose edge delay would be beyond timing.MaxEditDelayPS, is
// refused with a 400 — never answered with an empty 2xx (a body that could
// not encode) or a number folded from overflowed variances.
func TestHugeFactorsRefused(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep", `{"bench":"c432","scenarios":[{"name":"big","derate":1e200}]}`},
		{"/v1/sweep", `{"bench":"c432","scenarios":[{"name":"big","edge_scales":{"3":1e200}}]}`},
		{"/v1/sweep", `{"bench":"c432","clocked":true,"scenarios":[{"name":"big","clock_jitter_ps":1e200}]}`},
		{"/v1/sessions", `{"bench":"c432","seed":2,"scenarios":[{"name":"x","derate":1e200}]}`},
	} {
		if status, answer := postRaw(t, hs.URL+tc.path, tc.body); status != http.StatusBadRequest || !strings.Contains(answer, "at most") {
			t.Fatalf("POST %s %s: status %d, %s", tc.path, tc.body, status, answer)
		}
	}

	status, answer := postRaw(t, hs.URL+"/v1/sessions", `{"bench":"c432","seed":2}`)
	var v SessionView
	if status != http.StatusCreated || json.Unmarshal([]byte(answer), &v) != nil {
		t.Fatalf("create session: status %d, %s", status, answer)
	}
	edits := hs.URL + "/v1/sessions/" + v.ID + "/edits"
	for _, body := range []string{
		`{"edits":[{"op":"scale_delay","edge":3,"scale":1e200}]}`,
		`{"edits":[{"op":"set_nominal","edge":3,"value_ps":1e300}]}`,
	} {
		if status, answer := postRaw(t, edits, body); status != http.StatusBadRequest || !strings.Contains(answer, "not finite or beyond") {
			t.Fatalf("POST edits %s: status %d, %s", body, status, answer)
		}
	}
	// The session still answers its unedited delay.
	status, answer = postRaw(t, edits, `{"edits":[{"op":"scale_delay","edge":3,"scale":1}]}`)
	var rep SessionEditResponse
	if status != http.StatusOK || json.Unmarshal([]byte(answer), &rep) != nil || rep.MeanPS != v.MeanPS {
		t.Fatalf("unit edit after refusals: status %d, %s (created at mean %g)", status, answer, v.MeanPS)
	}
}

// TestBatchedEdgeScalesRefusalIsolated: in a micro-batch, an out-of-range
// edge_scales key fails only the caller that sent it; the other caller's
// sweep runs and matches the unbatched answer.
func TestBatchedEdgeScalesRefusalIsolated(t *testing.T) {
	_, batched := newTestServer(t, Config{MaxConcurrent: 4, BatchWindow: 5 * time.Second, BatchMax: 2})
	_, plain := newTestServer(t, Config{})
	good := `{"bench":"c432","scenarios":[{"name":"hot","derate":1.15},{"name":"e","edge_scales":{"3":1.5}}]}`
	bad := `{"bench":"c432","scenarios":[{"name":"hot","derate":1.15},{"name":"e","edge_scales":{"999999":2}}]}`
	var wg sync.WaitGroup
	status := make([]int, 2)
	answer := make([]string, 2)
	for i, body := range []string{good, bad} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(batched.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			status[i], answer[i] = resp.StatusCode, string(data)
		}()
	}
	wg.Wait()
	if status[1] != http.StatusBadRequest || !strings.Contains(answer[1], "edge_scales key 999999") {
		t.Fatalf("bad caller: status %d, %s", status[1], answer[1])
	}
	wantStatus, want := postRaw(t, plain.URL+"/v1/sweep", good)
	var got, ref SweepResponse
	if status[0] != http.StatusOK || wantStatus != http.StatusOK ||
		json.Unmarshal([]byte(answer[0]), &got) != nil || json.Unmarshal([]byte(want), &ref) != nil {
		t.Fatalf("good caller: status %d, %s (unbatched %d)", status[0], answer[0], wantStatus)
	}
	for k := range ref.Results {
		if g, w := got.Results[k], ref.Results[k]; g.Name != w.Name || !near(g.MeanPS, w.MeanPS) || !near(g.StdPS, w.StdPS) {
			t.Fatalf("good caller scenario %d: batched %+v vs unbatched %+v", k, g, w)
		}
	}
}
