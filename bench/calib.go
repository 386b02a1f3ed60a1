package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe. The box this runs on is a few cores of a shared host,
// and its speed is not its own: for minutes at a time every timing of one
// binary — CPU per frame, latencies, set-up — reads 20 to 60 % higher, and
// the guest sees no steal time to explain it. A probe of fixed work, timed
// next to each round, reads the same slowdown, so dividing a round's
// timings by it states them at the reference box's undisturbed speed. The
// probe is the benchmark's own code and calls nothing of the program, so
// no change to the program can move it.
//
// probeRefMS are the three kernels' times on the reference box (Xeon
// 2.1 GHz, Sapphire Rapids, 2 vCPUs) at its best: the 5th percentile of
// 2 000 probes taken inside the workloads over an hour. On another machine
// the factor settles at that machine's speed relative to the reference
// box, and the metrics read as reference-box milliseconds.
var probeRefMS = [3]float64{1.448, 2.354, 1.569}

var (
	probeMem  = make([]uint64, 1<<20) // 8 MB: beyond L2, inside L3
	probeSink uint64
)

func init() {
	for i := range probeMem {
		probeMem[i] = uint64(i) // fault the pages in before the first probe
	}
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSlowdown runs the probe (≈5 ms) and returns how much slower than
// the reference the host ran it: the mean over a dependent ALU chain,
// independent chains with multiplies and a branch, and cache-missing
// loads. It is timed on the thread's own CPU clock, so what other
// goroutines of this process take from the core does not count.
func hostSlowdown() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	x := uint64(88172645463325252)
	for i := 0; i < 800_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t1 := threadCPU()
	a, b, c, d := x|1, x+3, x+5, x+7
	for i := 0; i < 600_000; i++ {
		a = a*6364136223846793005 + 1
		b = b*2862933555777941757 + 3
		c ^= c >> 7
		c *= 0x9E3779B97F4A7C15
		if d&1 == 0 {
			d = d>>1 + a
		} else {
			d = d*3 + 1
		}
	}
	t2 := threadCPU()
	idx := x
	var sum uint64
	for i := 0; i < 150_000; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		sum += probeMem[idx>>44]
		probeMem[idx>>44] = sum
	}
	t3 := threadCPU()
	probeSink += x + sum + a + b + c + d
	return (ms(t1-t0)/probeRefMS[0] + ms(t2-t1)/probeRefMS[1] + ms(t3-t2)/probeRefMS[2]) / 3
}

// timeSetUp times one set-up in seconds at reference speed, with a probe
// on either side of it.
func timeSetUp(setUp func() error) (float64, error) {
	before := hostSlowdown()
	t0 := time.Now()
	err := setUp()
	took := time.Since(t0).Seconds()
	return took / ((before + hostSlowdown()) / 2), err
}
