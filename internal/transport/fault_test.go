package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"volcast/internal/faultnet"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/trace"
	"volcast/internal/wire"
)

// waitNoClients polls until the server has no registered clients.
func waitNoClients(t *testing.T, srv *hub.Hub, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if srv.NumClients() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server still has %d clients after %v", srv.NumClients(), timeout)
}

// The zombie-writer bug: a write error must tear the whole connection
// down (reader unblocked, client deregistered), not leave pushFrame
// serializing frames for a dead peer forever.
func TestWriterDeathCleansUpConnection(t *testing.T) {
	reg := metrics.NewRegistry()
	store := testStore(t, 3, 8_000)
	srv, _, addr := startHub(t, store, hub.Config{Metrics: reg, Vanilla: true},
		faultnet.Config{Seed: 3, ResetProb: 1, ResetAfterBytes: [2]int64{16 << 10, 32 << 10}},
	)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMessage(conn, &wire.Hello{ClientID: 1, Name: "victim"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadMessage(conn); err != nil { // Welcome
		t.Fatal(err)
	}
	// Drain until the injected reset kills the server-side writer; the
	// client then sees EOF/reset.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := wire.ReadMessage(conn); err != nil {
			break
		}
	}
	waitNoClients(t, srv, 3*time.Second)
	if reg.Counter("transport.writer.deaths").Value() == 0 {
		t.Error("writer death not counted")
	}
	if reg.Counter("transport.disconnects").Value() == 0 {
		t.Error("disconnect not counted")
	}
}

// A client vanishing mid-frame (abrupt close, no Bye) must deregister
// promptly on the server.
func TestMidFrameDisconnectCleansUp(t *testing.T) {
	reg := metrics.NewRegistry()
	store := testStore(t, 3, 8_000)
	srv, _, addr := startHub(t, store, hub.Config{Metrics: reg, Vanilla: true})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, &wire.Hello{ClientID: 2, Name: "quitter"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadMessage(conn); err != nil { // Welcome
		t.Fatal(err)
	}
	// Read one cell of a burst, then slam the connection shut.
	if _, err := wire.ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitNoClients(t, srv, 3*time.Second)
}

// A client that stops draining entirely must degrade and then be
// dropped, not retained with a permanently full queue.
func TestSlowClientDegradeThenDrop(t *testing.T) {
	reg := metrics.NewRegistry()
	store := testStore(t, 2, 60_000)
	srv, _, addr := startHub(t, store, hub.Config{
		Metrics: reg, Vanilla: true,
		SlowClientFrames: 10,
		QueueDepth:       64,
		// The stalled peer also goes idle (it sends nothing) and wedges
		// the writer (TCP buffers full); keep the idle and write budgets
		// out of the way to exercise the queue-based drop path.
		HeartbeatEvery: 500 * time.Millisecond,
		IdleTimeout:    60 * time.Second,
		WriteTimeout:   60 * time.Second,
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMessage(conn, &wire.Hello{ClientID: 3, Name: "stalled"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadMessage(conn); err != nil { // Welcome
		t.Fatal(err)
	}
	// Stop reading. The TCP buffers and the 4096-message queue fill; the
	// ladder degrades; after SlowClientFrames dropped FrameCompletes the
	// server must cut the cord.
	waitNoClients(t, srv, 15*time.Second)
	if reg.Counter("transport.drops.slowclient").Value() == 0 {
		t.Error("slow-client drop not counted")
	}
	if reg.Counter("transport.drops.enqueue").Value() == 0 {
		t.Error("enqueue drops not counted")
	}
}

// Shutdown must not hang when connections are mid-handshake (the
// registration race) or arriving concurrently.
func TestShutdownDuringHandshake(t *testing.T) {
	store := testStore(t, 2, 2_000)
	srv, _, addr := startHub(t, store, hub.Config{Metrics: metrics.NewRegistry()})

	// A few sockets that never send Hello (stuck in handshake)…
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	// …and a burst of clients racing registration with Shutdown.
	for i := 0; i < 5; i++ {
		go func(i int) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			wire.WriteMessage(conn, &wire.Hello{ClientID: uint32(i), Name: "racer"})
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			for {
				if _, err := wire.ReadMessage(conn); err != nil {
					return
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let some land mid-handshake

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung with connections mid-handshake")
	}
}

// Shutdown must drain gracefully: a connected push client receives the
// queued tail and a Bye, ending its session cleanly well before its
// nominal duration (no reconnect storm against a dying server).
func TestShutdownDrainsAndSaysBye(t *testing.T) {
	store := testStore(t, 3, 8_000)
	srv, _, addr := startHub(t, store, hub.Config{Metrics: metrics.NewRegistry()})

	study := trace.GenerateStudy(60, 1)
	type result struct {
		stats ClientStats
		err   error
	}
	res := make(chan result, 1)
	go func() {
		st, err := RunClient(context.Background(), ClientConfig{
			Addr: addr, ID: 1, Trace: study.Traces[0],
			Duration: 30 * time.Second, Reconnect: true,
		})
		res <- result{st, err}
	}()
	time.Sleep(600 * time.Millisecond)
	t0 := time.Now()
	srv.Shutdown()
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("client error after graceful shutdown: %v", r.err)
		}
		if r.stats.Frames == 0 {
			t.Error("no frames before shutdown")
		}
		if r.stats.Reconnects != 0 {
			t.Errorf("client tried to reconnect (%d) after a Bye", r.stats.Reconnects)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not finish after graceful shutdown")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("shutdown+drain took %v", d)
	}
}

// A client must ride through injected mid-stream resets: redial with
// backoff, re-handshake, and keep receiving frames.
func TestReconnectThroughInjectedReset(t *testing.T) {
	store := testStore(t, 3, 8_000)
	_, fln, addr := startHub(t, store, hub.Config{Metrics: metrics.NewRegistry(), Vanilla: true},
		faultnet.Config{Seed: 11, ResetProb: 1, ResetAfterBytes: [2]int64{96 << 10, 256 << 10}},
	)

	stats, err := RunClient(context.Background(), ClientConfig{
		Addr: addr, ID: 5, Name: "phoenix",
		Duration:  2500 * time.Millisecond,
		Reconnect: true, BackoffBase: 20 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("reconnecting client failed: %v", err)
	}
	if stats.Reconnects == 0 {
		t.Error("no reconnects despite every connection resetting")
	}
	if stats.Frames == 0 {
		t.Error("no frames delivered across reconnects")
	}
	if len(fln.Plans()) < 2 {
		t.Errorf("only %d connections accepted; reconnect never reached the server", len(fln.Plans()))
	}
}

// fakeServer runs a scripted wire-protocol peer for client-side tests.
func fakeServer(t *testing.T, script func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer hangUp(conn)
				script(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// hangUp ends a scripted connection without a reset: it half-closes, then
// reads what the client still sends until the client closes (a second at
// most). Closing a TCP socket with unread bytes sends a reset, which can
// discard what the client has not read yet, and a script that reads only
// the Hello always leaves the first pose a push client writes behind it.
func hangUp(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, conn)
	conn.Close()
}

// welcomeFor answers the handshake with a 1-cell grid.
func welcomeFor(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadMessage(conn); err != nil { // Hello
		return false
	}
	return wire.WriteMessage(conn, &wire.Welcome{
		SessionID: 1, FPS: 30, NumFrames: 10, CellSize: 0.5,
		GridDims: [3]uint32{1, 1, 1},
	}) == nil
}

// The pull-drain hang: a server that loses a FrameComplete (full queue)
// must cost the pull client one frame, not the rest of the session.
func TestPullClientSurvivesDroppedFrameComplete(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		if !welcomeFor(conn) {
			return
		}
		first := true
		for {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			msg, err := wire.ReadMessage(conn)
			if err != nil {
				return
			}
			req, ok := msg.(*wire.SegmentRequest)
			if !ok {
				continue // Bye, pongs, …
			}
			if first {
				// Simulate the dropped marker: answer with nothing at all.
				first = false
				continue
			}
			wire.WriteMessage(conn, &wire.FrameComplete{Frame: req.Frame})
		}
	})

	stats, err := RunPullClient(context.Background(), PullClientConfig{
		Addr: addr, ID: 7, Duration: 1500 * time.Millisecond,
		FrameTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesDropped == 0 {
		t.Error("dropped FrameComplete not detected")
	}
	if stats.Frames < 3 {
		t.Errorf("pull client wedged after the dropped marker: %d frames", stats.Frames)
	}
}

// A pull client must resync forward when a newer frame's messages arrive
// (its own frame's marker was lost upstream).
func TestPullClientResyncsToNewerFrame(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		if !welcomeFor(conn) {
			return
		}
		n := 0
		for {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			msg, err := wire.ReadMessage(conn)
			if err != nil {
				return
			}
			req, ok := msg.(*wire.SegmentRequest)
			if !ok {
				continue
			}
			n++
			if n == 1 {
				// Lose frame 0's marker AND answer as if already serving a
				// later request: the client must jump forward.
				wire.WriteMessage(conn, &wire.FrameComplete{Frame: req.Frame + 3})
				continue
			}
			wire.WriteMessage(conn, &wire.FrameComplete{Frame: req.Frame})
		}
	})

	stats, err := RunPullClient(context.Background(), PullClientConfig{
		Addr: addr, ID: 8, Duration: time.Second,
		FrameTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesDropped == 0 {
		t.Error("skipped-ahead frame not counted as dropped")
	}
	if stats.Frames < 2 {
		t.Errorf("client did not resync: %d frames", stats.Frames)
	}
}

// A server that goes silent (no frames, no pings) must trip the client's
// idle timeout and trigger a reconnect — not hang until the session ends.
func TestClientIdleTimeoutReconnects(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := wire.ReadMessage(conn); err != nil { // Hello
			return
		}
		if wire.WriteMessage(conn, &wire.Welcome{SessionID: 1, FPS: 30, NumFrames: 10}) != nil {
			return
		}
		time.Sleep(5 * time.Second) // dead air
	})

	stats, err := RunClient(context.Background(), ClientConfig{
		Addr: addr, ID: 9, Duration: 1500 * time.Millisecond,
		Reconnect: true, IdleTimeout: 250 * time.Millisecond,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HeartbeatMisses == 0 {
		t.Error("silent server never tripped the idle timeout")
	}
	if stats.Reconnects == 0 {
		t.Error("idle timeout did not trigger a reconnect")
	}
}

// The concurrent-write bug: poses and control messages share the socket;
// under load their frames must never interleave. A server-side decode of
// every message (ReadMessage errors on corrupt framing) while poses flood
// out exercises it; the real assertion is -race plus framing integrity.
func TestClientWritesDoNotInterleave(t *testing.T) {
	corrupt := make(chan error, 1)
	addr := fakeServer(t, func(conn net.Conn) {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadMessage(conn); err != nil {
			return
		}
		if wire.WriteMessage(conn, &wire.Welcome{SessionID: 1, FPS: 30, NumFrames: 10}) != nil {
			return
		}
		// Ping hard so the client's pong enqueues race its pose ticks.
		go func() {
			for i := 0; i < 200; i++ {
				if wire.WriteMessage(conn, &wire.Ping{Seq: uint32(i)}) != nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
		for {
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			msg, err := wire.ReadMessage(conn)
			if err != nil {
				// Framing errors mean two writes interleaved; clean EOF /
				// resets / timeouts do not.
				if errors.Is(err, wire.ErrUnknown) || errors.Is(err, wire.ErrShort) ||
					errors.Is(err, wire.ErrTooLarge) || errors.Is(err, wire.ErrBadString) {
					select {
					case corrupt <- err:
					default:
					}
				}
				return
			}
			if _, ok := msg.(*wire.Bye); ok {
				return
			}
		}
	})

	if _, err := RunClient(context.Background(), ClientConfig{
		Addr: addr, ID: 10, Duration: 700 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-corrupt:
		t.Fatalf("server-side stream corrupted (interleaved writes?): %v", err)
	default:
	}
}
