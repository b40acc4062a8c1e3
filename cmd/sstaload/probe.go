package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures how fast this machine runs a fixed piece of
// work while a phase is timed. On a shared host the speed of a core drifts
// by tens of percent over seconds to minutes (other tenants' load on
// sibling hyperthreads, caches and memory), which moves every latency and
// CPU-time metric with it. The probe times each run of its work in thread
// CPU time, so waiting for a CPU does not count, only how fast the CPU
// executes once it runs.

// probeWork is one unit of probe work: dependent floating-point
// arithmetic over a cache-resident array, then pseudo-random reads over an
// 8 MiB one, roughly the blend of the timing engine.
type probeWork struct {
	small []float64 // 32 KiB
	large []float64 // 8 MiB
	sink  float64   // keeps the arithmetic observable to the compiler
}

func newProbeWork() *probeWork {
	p := &probeWork{small: make([]float64, 4<<10), large: make([]float64, 1<<20)}
	for i := range p.small {
		p.small[i] = 1 + float64(i%7)*1e-3
	}
	for i := range p.large {
		p.large[i] = float64(i % 13)
	}
	return p
}

// run executes one unit (about 110 µs on a quiet reference host).
func (p *probeWork) run() {
	acc := 0.0
	for r := 0; r < 8; r++ {
		for i, v := range p.small {
			acc = acc*0.999999 + v*p.small[(i*7)&(len(p.small)-1)]
		}
	}
	idx := uint32(12345)
	for i := 0; i < 2048; i++ {
		idx = idx*1664525 + 1013904223
		acc += p.large[int(idx)&(len(p.large)-1)]
	}
	p.sink += acc
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// sampler runs during one phase of a run (the set-ups, the open loop, the
// closed loop): the host probe every 20 ms and, every 100 ms, the summed
// resident set of the serving processes. Each phase has its own sampler,
// so each phase's metrics are rescaled by the host speed of that phase.
type sampler struct {
	cancel context.CancelFunc
	done   chan struct{}
	probe  []float64 // µs per probe unit
	rss    []float64 // MiB
	err    error
	// steal0 and total0 are the host CPU counters when sampling started.
	steal0, total0 int64
	once           sync.Once
	res            phaseHost
}

// phaseHost is what a sampler saw over its phase.
type phaseHost struct {
	probeUS float64   // median probe unit time
	steal   float64   // share of the CPUs' time the hypervisor gave away
	rssMiB  []float64 // resident-set samples of the serving processes
}

// startSampler starts sampling pids (none: probe only); stop ends it.
func startSampler(ctx context.Context, pids []int) *sampler {
	p := newProbeWork()
	ctx, cancel := context.WithCancel(ctx)
	s := &sampler{cancel: cancel, done: make(chan struct{})}
	s.steal0, s.total0 = hostCPU()
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for tick := 0; ; tick++ {
			c0 := threadCPU()
			p.run()
			s.probe = append(s.probe, float64((threadCPU()-c0).Nanoseconds())/1e3)
			if tick%5 == 0 && len(pids) > 0 && s.err == nil {
				kib, err := rssKiB(pids)
				s.err = err
				s.rss = append(s.rss, float64(kib)/1024)
			}
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns what the phase saw. It may be called more
// than once.
func (s *sampler) stop() (phaseHost, error) {
	s.cancel()
	<-s.done
	s.once.Do(func() {
		steal, total := hostCPU()
		s.res = phaseHost{probeUS: median(s.probe), steal: math.NaN(), rssMiB: s.rss}
		if total > s.total0 {
			s.res.steal = float64(steal-s.steal0) / float64(total-s.total0)
		}
	})
	return s.res, s.err
}

// hostCPU reads the steal and total CPU time of the machine from
// /proc/stat, in clock ticks; zeros if it cannot. Steal is time the
// hypervisor ran something else while one of this guest's CPUs had work:
// the guest's threads stand still, and no CPU-time clock inside it shows.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
