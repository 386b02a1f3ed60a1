package leakcheck_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"volcast/internal/testutil/leakcheck"
	"volcast/internal/wire"
)

// fakeTB captures failures instead of failing the real test.
type fakeTB struct {
	errors []string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}

func TestCleanPasses(t *testing.T) {
	snap := leakcheck.Take()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	var f fakeTB
	snap.CheckWithin(&f, 2*time.Second)
	if len(f.errors) != 0 {
		t.Errorf("clean run reported leaks: %v", f.errors)
	}
}

func TestDetectsLeakThenClears(t *testing.T) {
	snap := leakcheck.Take()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()

	var f fakeTB
	snap.CheckWithin(&f, 150*time.Millisecond)
	if len(f.errors) != 1 {
		t.Fatalf("leak not reported: %v", f.errors)
	}
	// The report must carry the leaked stack, which names this test as
	// the spawner — the actionable part.
	if !strings.Contains(f.errors[0], "TestDetectsLeakThenClears") {
		t.Errorf("report does not name the spawner:\n%s", f.errors[0])
	}

	// Once the goroutine exits, the same snapshot must come back clean:
	// the retry loop absorbs the scheduler delay.
	close(stop)
	<-done
	var f2 fakeTB
	snap.CheckWithin(&f2, 2*time.Second)
	if len(f2.errors) != 0 {
		t.Errorf("false positive after goroutine exit: %v", f2.errors)
	}
}

// TestCountsBuffers: a wire.Buffer acquired after the snapshot and still
// held fails the check with the count; released, the same snapshot
// passes.
func TestCountsBuffers(t *testing.T) {
	snap := leakcheck.Take()
	b, err := wire.NewBuffer(&wire.Ping{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Retain(1)

	var f fakeTB
	snap.CheckWithin(&f, 50*time.Millisecond)
	if len(f.errors) != 1 || !strings.Contains(f.errors[0], "1 wire buffer(s)") {
		t.Fatalf("held buffer reported as %q, want one error naming 1 buffer", f.errors)
	}

	// One reference of two released: the buffer is still held.
	b.Release()
	var f2 fakeTB
	snap.CheckWithin(&f2, 50*time.Millisecond)
	if len(f2.errors) != 1 {
		t.Fatalf("buffer with a reference left not reported: %v", f2.errors)
	}

	b.Release()
	var f3 fakeTB
	snap.CheckWithin(&f3, 2*time.Second)
	if len(f3.errors) != 0 {
		t.Errorf("released buffer reported: %v", f3.errors)
	}
}
