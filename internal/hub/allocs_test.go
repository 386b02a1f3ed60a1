package hub

import (
	"errors"
	"net"
	"testing"
	"time"

	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/wire"
)

// sinkConn is a net.Conn whose writes succeed whole (or fail with err)
// and touch nothing, so a test counts only what the writer allocates.
type sinkConn struct {
	net.Conn
	err error
}

func (c *sinkConn) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	return len(p), nil
}

func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

var errPeerGone = errors.New("peer gone")

// TestHotPathAllocs holds the hub's send path to zero allocations: the
// batched write in every outcome (FrameComplete accounting over its
// budget and past its deadline, the drain deadline, a failed write, an
// empty batch) and the enqueue in every outcome (queued, to a closed
// subscriber, dropped on a full queue).
func TestHotPathAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	h := &Hub{cfg: Config{Metrics: reg, Trace: obs.New(64), WriteTimeout: time.Second}}
	h.cEnqueueDrops = reg.Counter("transport.drops.enqueue")
	s := &session{hub: h}
	s.cDropsEnqueue = reg.Counter("drops.enqueue")
	s.cViolSend = reg.Counter("budget_violations.send")
	s.wFrameMS = reg.Windowed("window.frame_ms", nil)
	s.wMisses = reg.WindowedCounter("window.misses")
	s.wBudgetViol = reg.WindowedCounter("window.budget_violations")

	// One long-lived buffer stands for every queued one: each use takes a
	// reference that the call under test releases.
	pb, err := wire.NewBuffer(&wire.Ping{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	sink := &sinkConn{}
	c := &subscriber{conn: sink, out: make(chan outBuf, 1), done: make(chan struct{})}
	w := &batchWriter{
		s: s, c: c,
		batch:      make([]outBuf, 0, maxWriteBatch),
		scratch:    make([][]byte, maxWriteBatch),
		sendBudget: time.Nanosecond,
	}
	late := time.Now().Add(-time.Second)
	batch := func(fcs ...int32) {
		for _, fc := range fcs {
			pb.Retain(1)
			w.batch = append(w.batch, outBuf{buf: pb, fc: fc, t0: late})
		}
	}
	closed := &subscriber{out: make(chan outBuf, 1), done: make(chan struct{})}
	close(closed.done)
	full := &subscriber{out: make(chan outBuf), done: make(chan struct{})}

	rows := []struct {
		name string
		// run reports whether the outcome is the one the row is about;
		// each row must report true.
		run func() bool
	}{
		{"flush", func() bool { batch(-1, 7, -1, 8); return w.flush() == nil && len(w.batch) == 0 }},
		{"flush/drain-deadline", func() bool {
			w.until = time.Now()
			batch(3)
			err := w.flush()
			w.until = time.Time{}
			return err == nil
		}},
		{"flush/write-error", func() bool {
			sink.err = errPeerGone
			batch(-1, 9)
			err := w.flush()
			sink.err = nil
			return err == errPeerGone && len(w.batch) == 0
		}},
		{"flush/empty", func() bool { return w.flush() == nil }},
		{"enqueue", func() bool {
			pb.Retain(1)
			ok := s.enqueue(c, outBuf{buf: pb, fc: -1})
			(<-c.out).buf.Release()
			return ok
		}},
		{"enqueue/closed", func() bool { pb.Retain(1); return !s.enqueue(closed, outBuf{buf: pb, fc: -1}) }},
		{"enqueue/full", func() bool { pb.Retain(1); return !s.enqueue(full, outBuf{buf: pb, fc: -1}) }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if !r.run() {
				t.Fatalf("%s did not take its branch", r.name)
			}
			if a := testing.AllocsPerRun(100, func() { r.run() }); a != 0 {
				t.Errorf("%s allocates %v per call, want 0", r.name, a)
			}
		})
	}
}
