// Package leakcheck asserts that a test leaves no goroutines and no
// wire.Buffer references behind. It snapshots the full goroutine dump and
// the count of live buffers before the code under test runs and diffs
// both afterwards — goroutines by ID, buffers by count — with a bounded
// retry so goroutines that are mid-exit when the test finishes get a
// chance to clear the scheduler and release what they hold:
//
//	snap := leakcheck.Take()
//	// ... run clients, shut the server down ...
//	snap.Check(t)
//
// A leak report carries the full stack of every leaked goroutine, which
// names the function that spawned it — far more actionable than the
// goroutine-count delta the transport chaos test used to assert.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"volcast/internal/wire"
)

// TB is the subset of testing.TB leakcheck needs (an interface so the
// package's own tests can capture failures without failing themselves).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// DefaultWait bounds Check's retry: connection handlers observe a closed
// socket and unwind within milliseconds, but a heavily loaded CI box can
// need seconds.
const DefaultWait = 5 * time.Second

// Snapshot is a baseline goroutine dump and buffer count to diff
// against.
type Snapshot struct {
	base    map[int64]string
	buffers int64
}

// Take captures the current goroutine set and live buffer count. Call it
// before starting the code under test.
func Take() *Snapshot {
	return &Snapshot{base: stacks(), buffers: wire.LiveBuffers()}
}

// Check fails t with the stacks of every goroutine that appeared since
// the snapshot and still has not exited after DefaultWait, and with the
// number of wire buffers acquired since the snapshot and not released.
func (s *Snapshot) Check(t TB) {
	t.Helper()
	s.CheckWithin(t, DefaultWait)
}

// CheckWithin is Check with an explicit retry budget.
func (s *Snapshot) CheckWithin(t TB, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	var leaked map[int64]string
	var held int64
	for {
		leaked = s.leakedNow()
		held = wire.LiveBuffers() - s.buffers
		if len(leaked) == 0 && held <= 0 {
			return
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if held > 0 {
		t.Errorf("leakcheck: %d wire buffer(s) acquired and not released after %v", held, wait)
	}
	if len(leaked) == 0 {
		return
	}
	ids := make([]int64, 0, len(leaked))
	for id := range leaked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "\n%s\n", leaked[id])
	}
	t.Errorf("leakcheck: %d goroutine(s) leaked after %v:%s", len(leaked), wait, b.String())
}

// leakedNow diffs a fresh dump against the baseline.
func (s *Snapshot) leakedNow() map[int64]string {
	leaked := map[int64]string{}
	for id, stack := range stacks() {
		if _, ok := s.base[id]; ok {
			continue
		}
		if benign(stack) {
			continue
		}
		leaked[id] = stack
	}
	return leaked
}

// stacks parses runtime.Stack(all=true) into per-goroutine records keyed
// by goroutine ID. (runtime system goroutines are already excluded from
// the dump.)
func stacks() map[int64]string {
	n := 1 << 20
	var dump []byte
	for {
		buf := make([]byte, n)
		if m := runtime.Stack(buf, true); m < n {
			dump = buf[:m]
			break
		}
		n *= 2
	}
	out := map[int64]string{}
	for _, rec := range strings.Split(string(dump), "\n\n") {
		rec = strings.TrimSpace(rec)
		rest, ok := strings.CutPrefix(rec, "goroutine ")
		if !ok {
			continue
		}
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		id, err := strconv.ParseInt(rest[:sp], 10, 64)
		if err != nil {
			continue
		}
		out[id] = rec
	}
	return out
}

// benign reports goroutines the harness itself owns: the testing
// framework's runners and the process-wide signal watcher. Everything
// else that appears after the snapshot is the test's responsibility.
func benign(stack string) bool {
	for _, marker := range []string{
		"testing.tRunner(",
		"testing.(*T).Run(",
		"testing.(*M).Run(",
		"testing.Main(",
		"testing.runTests(",
		"os/signal.signal_recv",
		"os/signal.loop",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
