package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hist is a latency histogram with exact 1<<shift-nanosecond buckets up
// to fineBuckets<<shift ns and log-spaced buckets above. The fine range is
// sized so that the percentiles the benchmark reports land in it; the
// coarse range only keeps outliers from being lost. One goroutine records
// into a hist; the runner merges them after the window.
type hist struct {
	shift  uint
	fine   []uint32
	coarse [64]uint64
	n      uint64
}

const fineBuckets = 1 << 16

func newHist(shift uint) *hist {
	return &hist{shift: shift, fine: make([]uint32, fineBuckets)}
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n++
	if i := ns >> h.shift; i < fineBuckets {
		h.fine[i]++
		return
	}
	h.coarse[bits.Len64(uint64(ns))]++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.fine {
		h.fine[i] += c
	}
	for i, c := range o.coarse {
		h.coarse[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, treating the
// samples of a bucket as spread evenly across it, or 0 on no samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	width := float64(int64(1) << h.shift)
	for i, c := range h.fine {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			return (float64(i) + (rank-cum)/float64(c)) * width
		}
		cum += float64(c)
	}
	for i, c := range h.coarse {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := math.Ldexp(1, i-1)
			return lo + (rank-cum)/float64(c)*lo
		}
		cum += float64(c)
	}
	return 0
}

// mergeAll folds hs into a fresh histogram with their bucket width.
func mergeAll(hs []*hist) *hist {
	m := newHist(hs[0].shift)
	for _, h := range hs {
		m.merge(h)
	}
	return m
}

// snapshot is the process-wide state read at a window edge. Nothing here
// stops the world: getrusage is a syscall and runtime/metrics reads the
// runtime's cumulative counters.
type snapshot struct {
	at       time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot() snapshot {
	metrics.Read(rtSamples)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return snapshot{
		at:       since(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    rtSamples[0].Value.Uint64(),
		gcCycles: rtSamples[1].Value.Uint64(),
		gcCPU:    rtSamples[2].Value.Float64(),
		allCPU:   rtSamples[3].Value.Float64(),
	}
}

// liveHeapMiB collects garbage and returns the live heap. It stops the
// world, so the runner calls it only outside the timed windows. It
// collects twice because a sync.Pool (the node recycler's) keeps its
// contents through one collection.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// epoch anchors since(); its monotonic reading makes since() a single
// clock read.
var epoch = time.Now()

// since returns nanoseconds since process start on the monotonic clock.
func since() time.Duration { return time.Since(epoch) }
