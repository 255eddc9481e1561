package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the CPU time all threads of the process have used so
// far, in nanoseconds: user plus system time from getrusage. Unlike the
// wall clock it does not advance while the process waits for a disk, a
// peer or a lock, nor while a hypervisor runs another guest on the
// process's virtual CPU (steal time, which Linux guests with paravirtual
// time accounting charge to no task). On a shared host the wall-clock
// time of one operation varies with the neighbours' load from minute to
// minute; the CPU time it costs does not.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// watch times one operation by the wall clock and by the process's CPU
// clock.
type watch struct {
	wall time.Time
	cpu  int64
}

func startWatch() watch { return watch{cpu: cpuNow(), wall: time.Now()} }

// stop returns when the operation ended and its wall-clock and CPU
// milliseconds.
func (w watch) stop() (end time.Time, wallMS, cpuMS float64) {
	end = time.Now()
	cpu := cpuNow()
	return end, float64(end.Sub(w.wall).Nanoseconds()) / 1e6, float64(cpu-w.cpu) / 1e6
}

// opTimes collects one kind of operation's wall-clock and CPU times in
// milliseconds, one sample of each per operation.
type opTimes struct{ wall, cpu latencies }

func (o *opTimes) add(wallMS, cpuMS float64) {
	o.wall = append(o.wall, wallMS)
	o.cpu = append(o.cpu, cpuMS)
}

// latencies collects per-operation times in milliseconds.
type latencies []float64

// quantile returns the q-quantile by the nearest-rank rule. A failed or
// refused operation is recorded as +Inf, so it counts as missing any limit.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// sum adds the finite samples.
func (l latencies) sum() float64 {
	t := 0.0
	for _, v := range l {
		if !math.IsInf(v, 0) {
			t += v
		}
	}
	return t
}

// mean is the mean of the finite samples.
func (l latencies) mean() float64 {
	n := 0
	for _, v := range l {
		if !math.IsInf(v, 0) {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return l.sum() / float64(n)
}

// tailNote states a sample count and how many samples lie beyond the q
// quantile, so a reader can judge whether the tail is supported.
func (l latencies) tailNote(q float64) string {
	return fmt.Sprintf("n=%d, %d beyond p%g", len(l), len(l)-int(math.Ceil(q*float64(len(l)))), 100*q)
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	return latencies(xs).quantile(0.5)
}

// spread is the interquartile range of xs as a share of their median:
// how much a timer-driven count varies across the windows of one run.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	l := latencies(xs)
	m := l.quantile(0.5)
	if m == 0 {
		return 0
	}
	return (l.quantile(0.75) - l.quantile(0.25)) / m
}

// liveHeapMB collects garbage, returns freed memory to the operating
// system (so the runtime does not do it in the background of a measured
// phase) and returns the live heap in MiB.
func liveHeapMB() float64 {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
