package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile reads the q-quantile of xs by linear interpolation between
// order statistics. It sorts a copy; an empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's high-water resident set in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procMark is one reading of the process-wide cost counters; two marks
// bracket a measured window.
type procMark struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // seconds of CPU the collector has used
}

func markProc() procMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procMark{
		at: time.Now(), cpu: cpuTime(),
		mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCPU: gcCPUSeconds(),
	}
}

// timeCalls times n calls of fn one by one and returns each call's
// duration in nanoseconds. Use it where a call is long enough (≳1 µs) for
// the clock reads around it not to matter.
func timeCalls(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0))
	}
	return out
}

// timeBatches times short calls in batches of per and returns the mean
// nanoseconds per call of each batch, so the median over batches is not
// dominated by clock-read cost.
func timeBatches(batches, per int, fn func()) []float64 {
	out := make([]float64, batches)
	for b := range out {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		out[b] = float64(time.Since(t0)) / float64(per)
	}
	return out
}

// allocsPer runs fn n times and returns mallocs and bytes allocated per
// call, process-wide — meaningful only while nothing else is running.
func allocsPer(n int, fn func(i int)) (objs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the
// garbage collector since process start.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
