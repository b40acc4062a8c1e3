package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSstad compiles ./cmd/sstad from the repository into dir and returns
// the binary's path. The build is not measured.
func buildSstad(ctx context.Context, repo, dir string) (string, error) {
	bin := filepath.Join(dir, "sstad")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/sstad")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build sstad: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// child is one running sstad process.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been reaped
}

// children tracks every process this program started, so exit, a signal
// or a panic can stop them all and wait for each.
type children struct {
	mu   sync.Mutex
	list []*child
}

var procs children

// start launches bin with args, logging to logPath. The process gets its
// own process group (a terminal ^C reaches only this program, which then
// stops its children in order) and is killed by the kernel should this
// program die without cleaning up.
func (cs *children) start(name, bin string, args []string, logPath string) (*child, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon is not interesting
		lf.Close()
		close(c.done)
	}()
	cs.mu.Lock()
	cs.list = append(cs.list, c)
	cs.mu.Unlock()
	return c, nil
}

// stop kills the given children and waits for each. Nothing reads a
// daemon's state after its run, so a graceful shutdown, which would first
// flush the session store (most of a second on session-ecos), buys
// nothing.
func (cs *children) stop(list []*child) {
	for _, c := range list {
		_ = c.cmd.Process.Kill() // fails only if already gone
	}
	for _, c := range list {
		<-c.done
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	keep := cs.list[:0]
	for _, c := range cs.list {
		select {
		case <-c.done:
		default:
			keep = append(keep, c)
		}
	}
	cs.list = keep
}

// stopAll stops every child still running.
func (cs *children) stopAll() {
	cs.mu.Lock()
	list := append([]*child(nil), cs.list...)
	cs.mu.Unlock()
	cs.stop(list)
}

// describe turns a start-up problem into an error carrying the end of the
// child's log.
func (c *child) describe(problem string) error {
	b, _ := os.ReadFile(c.log) // best effort: the log only decorates the error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return fmt.Errorf("%s %s:\n%s", c.name, problem, b)
}

// deployment is one booted server layout.
type deployment struct {
	base    string   // public API of the standalone daemon or coordinator
	metrics []string // /metrics of every serving process
	kids    []*child
	dir     string // per-deployment scratch (store directory, logs)
	// cleanup, when set, releases a deployment served in-process.
	cleanup func()
}

// pids lists the serving processes for /proc accounting.
func (d *deployment) pids() []int {
	out := make([]int, len(d.kids))
	for i, c := range d.kids {
		out[i] = c.cmd.Process.Pid
	}
	return out
}

func (d *deployment) stop() {
	procs.stop(d.kids)
	if d.cleanup != nil {
		d.cleanup()
	}
	if d.dir != "" {
		_ = os.RemoveAll(filepath.Join(d.dir, "store")) // scratch; a leftover is harmless
	}
}

// deploy boots the workload's server layout and waits until it serves:
// /healthz on every process and, for the cluster, both workers healthy at
// the coordinator.
func deploy(ctx context.Context, bin, dir string, w *workload) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	// launch starts one sstad on a free port and waits for its /healthz.
	launch := func(name string, coordinator bool, args ...string) (string, error) {
		port, err := freePort()
		if err != nil {
			return "", err
		}
		base := "http://127.0.0.1:" + strconv.Itoa(port)
		c, err := procs.start(name, bin, append([]string{"-addr", base[len("http://"):]}, args...), filepath.Join(dir, name+".log"))
		if err != nil {
			return "", err
		}
		d.kids = append(d.kids, c)
		d.metrics = append(d.metrics, base+"/metrics")
		return base, waitHealthy(ctx, hc, base, coordinator, c.done, c.describe)
	}
	if !w.cluster {
		var args []string
		if w.store {
			args = append(args, "-store-dir", filepath.Join(dir, "store"))
		}
		base, err := launch("sstad", false, args...)
		if err != nil {
			return nil, err
		}
		d.base = base
		ok = true
		return d, nil
	}
	// Workers first: the coordinator's first health ping then finds both
	// listening, rather than waiting a ping interval for a late one.
	var rpc []string
	for k := 1; k <= 2; k++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		rpc = append(rpc, addr)
		if _, err := launch(fmt.Sprintf("worker%d", k), false, "-role", "worker", "-rpc-listen", addr); err != nil {
			return nil, err
		}
	}
	base, err := launch("coordinator", true, "-role", "coordinator", "-nodes", strings.Join(rpc, ","))
	if err != nil {
		return nil, err
	}
	// The coordinator serves the public API: list it first.
	n := len(d.kids) - 1
	d.kids = append([]*child{d.kids[n]}, d.kids[:n]...)
	d.metrics = append([]string{d.metrics[n]}, d.metrics[:n]...)
	d.base = base
	ok = true
	return d, nil
}

// waitHealthy polls /healthz until it answers 200 (and, for a coordinator,
// reports two healthy nodes), failing fast when exited closes (a child
// process died); describe names the server in errors.
func waitHealthy(ctx context.Context, hc *http.Client, base string, coordinator bool, exited <-chan struct{}, describe func(string) error) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if ready, err := healthz(ctx, hc, base, coordinator); err == nil && ready {
			return nil
		}
		select {
		case <-exited:
			return describe("exited during start-up")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return describe("not healthy after 60s")
		}
	}
}

func healthz(ctx context.Context, hc *http.Client, base string, coordinator bool) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, nil
	}
	if !coordinator {
		return true, nil
	}
	var body struct {
		Cluster struct {
			Nodes []struct {
				Healthy bool `json:"healthy"`
			} `json:"nodes"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	healthy := 0
	for _, n := range body.Cluster.Nodes {
		if n.Healthy {
			healthy++
		}
	}
	return healthy == 2, nil
}

// clockTicksPerSec is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicksPerSec = 100

// cpuTicks sums utime+stime of the processes.
func cpuTicks(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			return 0, errors.New("malformed /proc stat")
		}
		f := strings.Fields(string(b[i+1:]))
		if len(f) < 13 {
			return 0, errors.New("short /proc stat")
		}
		for _, s := range f[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, nil
}

// rssKiB sums the resident set (VmRSS) of the processes.
func rssKiB(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(b), "\nVmRSS:")
		f := strings.Fields(rest)
		if !ok || len(f) == 0 {
			return 0, fmt.Errorf("no VmRSS for pid %d", pid)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}
