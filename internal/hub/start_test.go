package hub

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"volcast/internal/geom"
	"volcast/internal/wire"
)

// nextComplete reads conn up to its next FrameComplete and returns it with
// the time it was read.
func nextComplete(t *testing.T, conn net.Conn) (*wire.FrameComplete, time.Time) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		msg, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if fc, ok := msg.(*wire.FrameComplete); ok {
			return fc, time.Now()
		}
	}
}

// TestFirstFrameAtPoseThenEveryInterval: frame 0 goes out when the first
// pose arrives, not at the session's first tick, and the ticker is
// anchored there — frame 1 follows a whole interval after frame 0, and
// frame 2 another.
func TestFirstFrameAtPoseThenEveryInterval(t *testing.T) {
	const fps = 2
	interval := time.Second / fps
	_, addr := startHub(t, Config{NewStore: testFactory(nil), FPS: fps, HeartbeatEvery: -1, ReapAfter: -1})
	conn := rawJoin(t, addr, 1, 0)
	defer conn.Close()
	// Two fifths into the first interval: a ticker started with the
	// session would fire three fifths of an interval after frame 0.
	time.Sleep(interval * 2 / 5)
	posed := time.Now()
	if err := wire.WriteMessage(conn, &wire.PoseUpdate{Pose: geom.Pose{Rot: geom.QuatIdent()}}); err != nil {
		t.Fatal(err)
	}
	fc, at := nextComplete(t, conn)
	if fc.Frame != 0 {
		t.Fatalf("first FrameComplete is frame %d, want 0", fc.Frame)
	}
	if d := at.Sub(posed); d > interval/2 {
		t.Errorf("frame 0 completed %v after the first pose, want it pushed at the pose (interval %v)", d, interval)
	}
	first, prev := at, at
	for k := uint32(1); k <= 2; k++ {
		fc, at := nextComplete(t, conn)
		if fc.Frame != k {
			t.Fatalf("FrameComplete for frame %d, want %d", fc.Frame, k)
		}
		if gap := at.Sub(prev); gap < interval*3/4 {
			t.Errorf("frame %d completed %v after frame %d, want one interval (%v)", k, gap, k-1, interval)
		}
		prev = at
	}
	if span := prev.Sub(first); span < 2*interval*3/4 || span > 2*interval*2 {
		t.Errorf("frames 0→2 took %v, want two intervals (%v)", span, 2*interval)
	}
}

// TestFirstFrameWithoutPoseAfterOneInterval: a subscriber that sends no
// pose (a bare Hello) still gets frame 0 one interval after the session
// starts, at full density — every occupied cell.
func TestFirstFrameWithoutPoseAfterOneInterval(t *testing.T) {
	const fps = 5
	interval := time.Second / fps
	h, addr := startHub(t, Config{NewStore: testFactory(nil), FPS: fps, HeartbeatEvery: -1, ReapAfter: -1})
	dialed := time.Now() // the session starts after this
	conn := rawJoin(t, addr, 1, 0)
	defer conn.Close()
	fc, at := nextComplete(t, conn)
	if fc.Frame != 0 {
		t.Fatalf("first FrameComplete is frame %d, want 0", fc.Frame)
	}
	if d := at.Sub(dialed); d < interval {
		t.Errorf("frame 0 completed %v after dialing with no pose sent, want at least one interval (%v)", d, interval)
	}
	h.mu.Lock()
	s := h.sessions[0]
	h.mu.Unlock()
	if occ := s.store.Frame(0).Occupied.Count(); int(fc.Cells) != occ {
		t.Errorf("frame 0 carried %d cells, want every one of the %d occupied", fc.Cells, occ)
	}
}

// TestFirstFramePullOnlySceneNotPushed: a pull subscriber fetches for
// itself, so a scene whose only subscriber pulls has nothing pushed —
// neither at its first pose nor at any tick.
func TestFirstFramePullOnlySceneNotPushed(t *testing.T) {
	const fps = 20
	interval := time.Second / fps
	_, addr := startHub(t, Config{NewStore: testFactory(nil), FPS: fps, HeartbeatEvery: -1, ReapAfter: -1})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := wire.AppendMessage(nil, &wire.Hello{ClientID: 1, Name: "pull", Flags: wire.HelloFlagPull})
	hello, _ = wire.AppendMessage(hello, &wire.PoseUpdate{Pose: geom.Pose{Rot: geom.QuatIdent()}})
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if msg, err := wire.ReadMessage(conn); err != nil {
		t.Fatalf("welcome: %v", err)
	} else if _, ok := msg.(*wire.Welcome); !ok {
		t.Fatalf("expected Welcome, got %v", msg.Type())
	}
	conn.SetReadDeadline(time.Now().Add(4 * interval))
	msg, err := wire.ReadMessage(conn)
	if err == nil {
		t.Fatalf("pull-only scene pushed %v", msg.Type())
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read: %v", err)
	}
}
