package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	// The generator's live heap is small and its garbage steady; rarer GC
	// cycles keep it from stealing the processor its schedule runs on.
	debug.SetGCPercent(400)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchSpec is BENCHMARK.json: the workloads, the metrics reported to a
// harness, and each end-to-end metric's regression bound.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(repo string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// listFlag is a comma-separated list flag.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error {
	*l = nil
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*l = append(*l, s)
		}
	}
	return nil
}

// switchFlag is an on/off flag that takes an explicit value (-trace 1),
// so "-trace 0" parses as off rather than as a stray argument.
type switchFlag bool

func (s *switchFlag) String() string { return strconv.FormatBool(bool(*s)) }
func (s *switchFlag) Set(v string) error {
	b, err := strconv.ParseBool(v)
	*s = switchFlag(b)
	return err
}

// hostInfo is the host block printed before, and stored with, every run.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// ratedNProc is the host size the open-loop rates were chosen for.
const ratedNProc = 2

func hostBlock(ctx context.Context, repo string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.CommandContext(ctx, "git", "-C", repo, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// findRepo walks up from the working directory to the module root of the
// repository (go.mod declaring "module repro").
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository (no go.mod declaring module repro); pass -repo")
		}
		dir = parent
	}
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("sstaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names listFlag
	var trace switchFlag
	repo := fs.String("repo", "", "repository root (default: found from the working directory)")
	out := fs.String("out", "", "output directory for logs, traces and results (default <repo>/.bench_build/sstaload)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same request stream and arrival schedule")
	seconds := fs.Int("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	fs.Var(&names, "workload", "comma-separated workloads to run (default: all)")
	fs.Var(&names, "workloads", "alias of -workload")
	fs.Var(&trace, "trace", "1: traced run (per-layer metrics, trace.jsonl, layers.json); 0: end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two sets of results files: -compare A B, each a directory or comma-separated list")
	results := fs.String("results", "", "results file (default <out>/results-s<seed>[-trace].json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Whatever ends this function — return, interrupt or a panic on this
	// goroutine — stops and reaps every daemon it started. Should the whole
	// process die instead, the children's parent-death signal kills them.
	defer procs.stopAll()

	if *repo == "" {
		var err error
		if *repo, err = findRepo(); err != nil {
			fmt.Fprintln(stderr, "sstaload:", err)
			return 1
		}
	}
	spec, err := readSpec(*repo)
	if err != nil {
		fmt.Fprintln(stderr, "sstaload:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "sstaload: -compare needs two result sets: A B")
			return 2
		}
		if err := runCompare(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "sstaload:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sstaload: unexpected arguments %q\n", fs.Args())
		return 2
	}

	cfg := &runCfg{repo: *repo, out: *out, seed: *seed, seconds: *seconds, trace: bool(trace), conns: runtime.NumCPU()}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.repo, ".bench_build", "sstaload")
	}
	if cfg.seconds <= 0 {
		cfg.seconds = spec.RunSeconds
	}
	if cfg.seconds < 6 {
		fmt.Fprintln(stderr, "sstaload: -seconds must be at least 6")
		return 2
	}
	var ws []*workload
	if len(names) == 0 {
		ws = workloads
	}
	for _, n := range names {
		w := workloadByName(n)
		if w == nil {
			fmt.Fprintf(stderr, "sstaload: unknown workload %q\n", n)
			return 2
		}
		ws = append(ws, w)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "sstaload:", err)
		return 1
	}

	host := hostBlock(ctx, cfg.repo)
	fmt.Fprintf(stdout, "host: %s | nproc %d | GOMAXPROCS %d | %s | commit %s\n", host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit)
	if host.NProc != ratedNProc {
		fmt.Fprintf(stdout, "warning: the open-loop rates are sized for %d vCPUs and stay fixed; this host has %d, so utilisation differs from the baseline\n", ratedNProc, host.NProc)
	}
	bin, err := buildSstad(ctx, cfg.repo, cfg.out)
	if err != nil {
		fmt.Fprintln(stderr, "sstaload:", err)
		return 1
	}
	cfg.bin = bin

	var all []*runResult
	for _, w := range ws {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "sstaload: interrupted")
				return 130
			}
			fmt.Fprintln(stderr, "sstaload:", err)
			return 1
		}
		printResult(stdout, w, res)
		all = append(all, res)
	}
	path := *results
	if path == "" {
		suffix := ""
		if cfg.trace {
			suffix = "-trace"
		}
		path = filepath.Join(cfg.out, fmt.Sprintf("results-s%d%s.json", cfg.seed, suffix))
	}
	if err := writeJSONFile(path, resultsFile{Host: host, Runs: all}); err != nil {
		fmt.Fprintln(stderr, "sstaload:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	if len(all) == 1 {
		line, err := harnessLine(spec, all[0])
		if err != nil {
			fmt.Fprintln(stderr, "sstaload:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// resultsFile is what one invocation writes; -compare reads these.
type resultsFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

// harnessLine renders the one-line summary a harness reads: the metrics
// BENCHMARK.json lists for this kind of run, each required.
func harnessLine(spec *benchSpec, r *runResult) (string, error) {
	list := spec.EndToEnd
	if r.Trace {
		list = spec.PerLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		}
		metrics[m.Name] = v
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b), err
}

func printResult(w io.Writer, wl *workload, r *runResult) {
	layout := "standalone"
	if wl.cluster {
		layout = "coordinator + 2 workers"
	}
	kind := "end to end"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, %s, %.0f req/s open loop, seed %d, %d s)\n", r.Workload, kind, layout, wl.rate, r.Seed, r.Seconds)
	fmt.Fprintf(w, "   attempted %d  failed %d  correct %v  valid %v  phases %v\n", r.Attempted, r.Failed, r.Correct, r.Valid, r.Phases)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	if !r.Trace {
		names = e2eNames
	}
	for _, k := range names {
		if v, ok := r.Metrics[k]; ok {
			fmt.Fprintf(w, "   %-42s %14.4f %s\n", k, v.Value, v.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   INVALID: %s\n", n)
	}
	fk := make([]string, 0, len(r.Failures))
	for k := range r.Failures {
		fk = append(fk, k)
	}
	sort.Strings(fk)
	for _, k := range fk {
		fmt.Fprintf(w, "   failed x%d: %s (first: %s)\n", r.Failures[k], k, r.Examples[k])
	}
}
