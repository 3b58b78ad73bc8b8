package main

import (
	"container/heap"
	"runtime"
	"runtime/debug"
	"time"
)

// The shared reference host changes speed under the benchmark: for
// minutes at a time the whole machine can run a third slower than usual,
// so a figure timed in one run also measures the host's load at that
// moment (see README.md). The benchmark corrects for it with a fixed
// kernel of its own, timed again and again through the run: every timed
// figure is scaled by calRefMs over the kernel's mean time in the run,
// which gives the figure the run would have shown on the reference host
// at its usual speed. The kernel is the benchmark's code, not the
// program's, so a change to the program moves a corrected figure exactly
// as much as the raw one. Raw figures are printed next to the corrected
// ones.

// calRefMs is the kernel's median time on the reference host (2-vCPU
// Xeon VM) at its usual speed.
const calRefMs = 14.5

// calSteps is the kernel's length: about 14 ms on the reference host.
const calSteps = 40000

// calEvent is one pending event of the kernel's queue.
type calEvent struct {
	t    int64
	id   int
	data []int
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calKernel is a small discrete-event simulation — a heap of events, a
// fresh small allocation per event and a map of counters — the same kind
// of work as the simulator's event engine. It returns a value so that
// the work is not optimised away.
func calKernel(steps int) int {
	q := &calQueue{}
	counts := map[int]int{}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 64; i++ {
		heap.Push(q, &calEvent{t: int64(i), id: i, data: make([]int, 4)})
	}
	for k := 0; k < steps; k++ {
		e := heap.Pop(q).(*calEvent)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		counts[int(x%4096)] += e.id + len(e.data)
		heap.Push(q, &calEvent{t: e.t + int64(x%97) + 1, id: int(x % 1000), data: make([]int, 4+int(x%8))})
	}
	return len(counts)
}

// hostClock keeps the kernel's times of one run.
type hostClock struct {
	ms   []float64
	sink int
}

// calibrate times one kernel run. The heap is collected first and the
// collector is off while the kernel runs, so neither the program's
// garbage nor its live heap can change the kernel's time; the kernel's
// own garbage is collected before the program runs again.
func (h *hostClock) calibrate() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	t0 := time.Now()
	h.sink += calKernel(calSteps)
	h.ms = append(h.ms, ms(time.Since(t0)))
	debug.SetGCPercent(old)
	runtime.GC()
}

// scale is the factor that turns a time measured in this run into
// reference-host time: calRefMs over the kernel's mean time, the
// slowest and fastest tenth left out. Rates are divided by it.
func (h *hostClock) scale() float64 {
	return calRefMs / trimmedMean(h.ms)
}
