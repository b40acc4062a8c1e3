package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
)

// The parser must read what sstad actually exposes, labelled series
// included; a coordinator adds per-node series whose label values carry
// colons.
func TestParsePromFromServer(t *testing.T) {
	pool := cluster.NewPool(cluster.PoolConfig{Addrs: []string{"127.0.0.1:1"}})
	srv := server.New(server.Config{Cluster: pool})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	e, err := parseProm(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"sstad_graph_cache_misses_total",
		"sstad_extract_cache_misses_total",
		"sstad_prep_cache_misses_total",
		`sstad_requests_total{endpoint="analyze"}`,
		`sstad_coalesce_hits_total{endpoint="sweep"}`,
		`sstad_cluster_node_healthy{node="127.0.0.1:1"}`,
		"sstad_item_latency_seconds_count",
	} {
		if _, ok := e[key]; !ok {
			t.Errorf("series %s missing from the parsed exposition", key)
		}
	}
	if got := e.sum("sstad_jobs"); got != 0 {
		t.Errorf("sum over sstad_jobs{state=...} = %v on an idle server", got)
	}
}

func TestParsePromSyntax(t *testing.T) {
	text := strings.Join([]string{
		"# HELP x something",
		`x_total{b="2",a="q\"uote"} 3 1700000000`,
		"y 1.5e-3",
		"",
	}, "\n")
	e, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v := e.get(`x_total{a="q\"uote",b="2"}`); v != 3 {
		t.Errorf("labelled series (labels sorted, escapes decoded) = %v, want 3", v)
	}
	if v := e.get("y"); v != 1.5e-3 {
		t.Errorf("y = %v", v)
	}
	if _, err := parseProm(strings.NewReader(`z{a="b} 1`)); err == nil {
		t.Error("unterminated label value accepted")
	}
}
