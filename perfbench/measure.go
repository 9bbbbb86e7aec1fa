package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Runtime metrics the window reads; all are cumulative except the two
// memory classes, which the sampler combines into the mapped-and-retained
// footprint.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// footprint is the memory the Go runtime holds from the OS: everything it
// mapped minus heap pages already returned.
func footprint(s []metrics.Sample) float64 { return sampleFloat(s[3]) - sampleFloat(s[4]) }

// window measures one workload's timed phase from the outside: process CPU
// (getrusage), Go allocation and GC CPU (runtime/metrics), and peak memory
// footprint, sampled every memSampleEvery by one goroutine that stop joins.
type window struct {
	start    time.Time
	cpu0     float64
	rt0      []metrics.Sample
	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	peak     float64

	// Filled by stop.
	WallS, CPUS, AllocBytes, GCCPUFrac, PeakMB float64
	// OpCPUS and OpAllocBytes total what measure charged to operations.
	OpCPUS, OpAllocBytes float64
}

// measure runs one operation and returns its wall time, charging its CPU
// and allocation to the window's operation totals, so untimed work between
// operations (resets, answer checks) stays out of the per-op figures.
func (w *window) measure(fn func()) time.Duration {
	a0 := allocBytes()
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	w.OpCPUS += cpuSeconds() - c0
	w.OpAllocBytes += allocBytes() - a0
	return d
}

// elapsed returns the seconds since the window opened.
func (w *window) elapsed() float64 { return time.Since(w.start).Seconds() }

func allocBytes() float64 {
	s := []metrics.Sample{{Name: runtimeSamples[0]}}
	metrics.Read(s)
	return sampleFloat(s[0])
}

const memSampleEvery = 10 * time.Millisecond

// openWindow releases set-up garbage so the peak reflects the window, then
// starts the clocks and the memory sampler.
func openWindow() *window {
	runtime.GC()
	debug.FreeOSMemory()
	w := &window{stopc: make(chan struct{}), done: make(chan struct{})}
	w.rt0 = readRuntime()
	w.peak = footprint(w.rt0)
	w.cpu0 = cpuSeconds()
	w.start = time.Now()
	go w.sample()
	return w
}

func (w *window) sample() {
	defer close(w.done)
	t := time.NewTicker(memSampleEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
			w.observe()
		}
	}
}

func (w *window) observe() {
	f := footprint(readRuntime())
	w.mu.Lock()
	if f > w.peak {
		w.peak = f
	}
	w.mu.Unlock()
}

// stop closes the window and fills its totals; later calls are no-ops.
func (w *window) stop() {
	w.stopOnce.Do(func() {
		w.WallS = time.Since(w.start).Seconds()
		w.CPUS = cpuSeconds() - w.cpu0
		close(w.stopc)
		<-w.done
		w.observe()
		rt1 := readRuntime()
		w.AllocBytes = sampleFloat(rt1[0]) - sampleFloat(w.rt0[0])
		w.GCCPUFrac = ratio(sampleFloat(rt1[1])-sampleFloat(w.rt0[1]), sampleFloat(rt1[2])-sampleFloat(w.rt0[2]))
		w.PeakMB = w.peak / (1 << 20)
	})
}
