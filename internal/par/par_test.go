package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"volcast/internal/testutil/leakcheck"
)

func TestWorkersDefaultPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
}

func TestSetWorkers(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0) // restores the environment default
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0)", Workers())
	}
}

// TestMapDeterministic checks the index-ordered merge: the result slice
// must be identical for worker counts 1, 4 and 16.
func TestMapDeterministic(t *testing.T) {
	const n = 257
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := MapN(context.Background(), workers, n, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachRunsAll(t *testing.T) {
	// The pool is per-call: every worker must be gone once ForEachN
	// returns, across every pool width.
	leak := leakcheck.Take()
	defer leak.Check(t)
	for _, workers := range []int{1, 4, 16} {
		var count atomic.Int64
		if err := ForEachN(context.Background(), workers, 100, func(int) error {
			count.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count.Load() != 100 {
			t.Fatalf("workers=%d: ran %d items, want 100", workers, count.Load())
		}
	}
}

// TestLowestIndexErrorWins checks the deterministic error selection:
// when several items fail, the lowest-index error is returned for every
// pool width.
func TestLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := ForEachN(context.Background(), workers, 64, func(i int) error {
			if i%7 == 3 { // items 3, 10, 17, … fail
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("workers=%d: err = %v, want item 3 failed", workers, err)
		}
	}
}

func TestPanicPropagatesAsError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachN(context.Background(), workers, 16, func(i int) error {
			if i == 5 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 5 || pe.Value != "boom" {
			t.Fatalf("workers=%d: PanicError = {Index:%d Value:%v}", workers, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError has no stack", workers)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("workers=%d: Error() = %q", workers, pe.Error())
		}
	}
}

// TestCancelStopsScheduling checks that a pre-cancelled context schedules
// no work and that a mid-run cancellation stops new items promptly.
func TestCancelStopsScheduling(t *testing.T) {
	// Cancellation must not strand workers: the in-flight items finish
	// and every goroutine exits (the retry in Check absorbs the tail).
	leak := leakcheck.Take()
	defer leak.Check(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var count atomic.Int64
		err := ForEachN(ctx, workers, 100, func(int) error {
			count.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if count.Load() != 0 {
			t.Fatalf("workers=%d: pre-cancelled context ran %d items", workers, count.Load())
		}
	}

	// Mid-run: cancel once the first item starts. At most `workers` items
	// beyond the in-flight ones can still be scheduled before the loop
	// observes the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	err := ForEachN(ctx, 2, 10_000, func(int) error {
		count.Add(1)
		cancel()
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := count.Load(); got > 100 {
		t.Fatalf("cancellation did not stop scheduling: ran %d of 10000 items", got)
	}
}

func TestMapReturnsErrorNilResults(t *testing.T) {
	got, err := Map(context.Background(), 8, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("no")
		}
		return i, nil
	})
	if err == nil || got != nil {
		t.Fatalf("Map = (%v, %v), want (nil, error)", got, err)
	}
}

func TestZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

// spin does iters steps of dependent floating-point work, a stand-in for
// a CPU-bound work item (a clock-timed spin would hide that two vCPUs may
// share one core).
func spin(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// spinSink keeps spin's result live.
var spinSink atomic.Uint64

// spinPerMicro calibrates spin: how many steps take a microsecond in
// series on this machine.
func spinPerMicro() int {
	const iters = 1 << 22
	t0 := time.Now()
	spinSink.Add(uint64(spin(iters)))
	return max(1, int(iters/time.Since(t0).Microseconds()))
}

// BenchmarkForEachGranularity measures what a fan-out buys at a given
// item size: 4 and 16 items of 10 µs, 100 µs and 1 ms of fixed work each
// (as long as it takes in series), run in series (width 1) and on a pool
// GOMAXPROCS wide, so run it at -cpu 2 and the like. A fan-out pays to
// wake its workers and the items then share whatever the vCPUs really
// have; below a few hundred µs per item that can eat the overlap
// (DESIGN §14).
func BenchmarkForEachGranularity(b *testing.B) {
	perMicro := spinPerMicro()
	for _, n := range []int{4, 16} {
		for _, d := range []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond} {
			iters := perMicro * int(d.Microseconds())
			item := func(int) error {
				spinSink.Add(uint64(spin(iters)))
				return nil
			}
			for _, mode := range []string{"serial", "pool"} {
				b.Run(fmt.Sprintf("items=%d/item=%v/%s", n, d, mode), func(b *testing.B) {
					width := 1
					if mode == "pool" {
						width = runtime.GOMAXPROCS(0)
					}
					for i := 0; i < b.N; i++ {
						if err := ForEachN(context.Background(), width, n, item); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkForEachStart measures a fan-out's fixed cost: how long after
// the ForEachN call every helper goroutine is running its first item.
// The fan-out has one item per worker (GOMAXPROCS of them, so run it at
// -cpu 2 and up), and each item spins until all have started, so each
// runs on a helper of its own; us/start is the median, over the fan-outs,
// of the time until the last of them started. A fan-out over items
// shorter than that runs mostly on the first helper (DESIGN §14).
func BenchmarkForEachStart(b *testing.B) {
	width := runtime.GOMAXPROCS(0)
	if width < 2 {
		b.Skip("a fan-out starts a second helper only at GOMAXPROCS ≥ 2")
	}
	starts := make([]time.Duration, b.N)
	for i := range starts {
		var started atomic.Int32
		var last time.Duration
		t0 := time.Now()
		if err := ForEachN(context.Background(), width, width, func(int) error {
			if started.Add(1) == int32(width) {
				last = time.Since(t0)
			}
			for started.Load() < int32(width) {
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		starts[i] = last
	}
	slices.Sort(starts)
	b.ReportMetric(float64(starts[len(starts)/2])/float64(time.Microsecond), "us/start")
}
