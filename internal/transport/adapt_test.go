package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"volcast/internal/faultnet"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/trace"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// adaptTap is a client's connection that records every Adapt the server
// sends, framing the inbound stream as wire.ReadMessage does.
type adaptTap struct {
	net.Conn
	mu     sync.Mutex
	buf    []byte
	adapts []wire.Adapt
}

func (a *adaptTap) Read(p []byte) (int, error) {
	n, err := a.Conn.Read(p)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf = append(a.buf, p[:n]...)
	for len(a.buf) > 4 {
		end := 4 + int(binary.LittleEndian.Uint32(a.buf))
		if len(a.buf) < end {
			break
		}
		if wire.MsgType(a.buf[4]) == wire.TypeAdapt {
			if m, err := wire.ReadMessage(bytes.NewReader(a.buf[:end])); err == nil {
				a.adapts = append(a.adapts, *m.(*wire.Adapt))
			}
		}
		a.buf = a.buf[end:]
	}
	return n, err
}

func (a *adaptTap) received() []wire.Adapt {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]wire.Adapt(nil), a.adapts...)
}

// dialTap dials plain TCP, lets wrap shape the socket and puts the tap on
// top.
func dialTap(tap *adaptTap, wrap func(net.Conn) net.Conn) func(context.Context, string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		d := net.Dialer{Timeout: 5 * time.Second}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			conn = wrap(conn)
		}
		tap.Conn = conn
		return tap, nil
	}
}

// levelZeroBps is what a vanilla subscriber of store is owed per second
// at full density, averaged over the loop.
func levelZeroBps(store *vivo.Store) int64 {
	total := 0
	for fi := 0; fi < store.NumFrames(); fi++ {
		total += vivo.VanillaRequest(store.Frame(fi).Occupied).Bytes(store.SizeOracle(fi))
	}
	return int64(total * store.FPS() / store.NumFrames())
}

// TestUncappedClientsKeepFullDensity guards the pass against the first of
// the two failures PR 16 found in the simulator, a spurious downgrade:
// clients on an unshaped loopback link, one decoding at 30 fps and one
// only reading at 240 fps, are owed more than five passes' worth of frames
// and hear no Adapt.
func TestUncappedClientsKeepFullDensity(t *testing.T) {
	study := trace.GenerateStudy(300, 1)
	for _, tc := range []struct {
		name   string
		fps    int
		decode bool
	}{{"30fps-decode", 30, true}, {"240fps-read", 240, false}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			store := testStore(t, 5, 8_000)
			_, _, addr := startHub(t, store, hub.Config{FPS: tc.fps, Metrics: metrics.NewRegistry()})
			tap := &adaptTap{}
			stats, err := RunClient(context.Background(), ClientConfig{
				Addr: addr, ID: 1, Trace: study.Traces[0], Decode: tc.decode,
				Duration: 6500 * time.Millisecond, Dial: dialTap(tap, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Frames <= 5*tc.fps {
				t.Fatalf("%d frames at %d fps: fewer than five passes crossed", stats.Frames, tc.fps)
			}
			if got := tap.received(); len(got) != 0 {
				t.Errorf("uncapped client over %d frames received %d Adapt: %+v", stats.Frames, len(got), got)
			}
		})
	}
}

// playUntil plays one client through tap until the Adapts it received
// satisfy done, and fails the test if the client ends first or with an
// error.
func playUntil(t *testing.T, cfg ClientConfig, tap *adaptTap, done func([]wire.Adapt) bool) ClientStats {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		stats ClientStats
		err   error
	}
	ended := make(chan result, 1)
	go func() {
		st, err := RunClient(ctx, cfg)
		ended <- result{st, err}
	}()
	for !done(tap.received()) {
		select {
		case r := <-ended:
			t.Fatalf("client ended (%v) after Adapts %+v", r.err, tap.received())
		case <-time.After(50 * time.Millisecond):
		}
	}
	cancel()
	r := <-ended
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.stats
}

// TestCappedClientMovesDown: a client whose link carries half of its
// full-density demand, paced by faultnet, is moved down within three
// passes, hears it, and is not dropped as a slow client. The content is
// ≈ 60 Mbps so that the excess fills the hub's kernel send buffer (up to
// 4 MB once autotuned on Linux) inside the first pass: until it is full
// the writer cannot see the link. volload's 2 KB receive buffer is left
// out: on loopback it alone holds a connection to ≈ 0.5 Mbps, below the
// cap under test.
func TestCappedClientMovesDown(t *testing.T) {
	store := testStore(t, 5, 40_000)
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	downAt := 0 // the pass of the first move
	_, _, addr := startHub(t, store, hub.Config{Vanilla: true, Metrics: reg, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		mu.Lock()
		defer mu.Unlock()
		if strings.Contains(format, "adaptation level") && downAt == 0 {
			downAt = int(reg.Counter("hub.session.0.frames").Value()) / store.FPS()
		}
	}})
	plan := faultnet.Plan{BandwidthBps: levelZeroBps(store) / 2}
	tap := &adaptTap{}
	stats := playUntil(t, ClientConfig{
		Addr: addr, ID: 1, Duration: 20 * time.Second,
		Dial: dialTap(tap, func(c net.Conn) net.Conn { return faultnet.WrapConn(c, plan) }),
	}, tap, func(got []wire.Adapt) bool { return len(got) > 0 })
	mu.Lock()
	defer mu.Unlock()
	if downAt < 1 || downAt > 3 {
		t.Errorf("first move at pass %d, want one of the first three (capped at %d B/s)", downAt, plan.BandwidthBps)
	}
	if got := tap.received(); got[0].Quality == 0 || got[0].Reason != 2 {
		t.Errorf("capped client received %+v first, want a quality-down Adapt", got[0])
	}
	if n := reg.Counter("transport.drops.slowclient").Value(); n != 0 || stats.Reconnects != 0 {
		t.Errorf("capped client dropped as slow %d times, %d reconnects", n, stats.Reconnects)
	}
}

// throttledConn paces reads to bps until a deadline, then reads freely.
type throttledConn struct {
	net.Conn
	bps   int64
	until time.Time
}

func (c *throttledConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if time.Now().Before(c.until) {
		time.Sleep(time.Duration(int64(n) * int64(time.Second) / c.bps))
	}
	return n, err
}

// TestThrottledClientRecovers guards the other failure PR 16 found, an
// unreachable upgrade: a client that reads at a quarter of its demand for
// three seconds and then drains freely is moved down, then back to full
// density by a quality-up Adapt (Reason 3).
func TestThrottledClientRecovers(t *testing.T) {
	store := testStore(t, 5, 40_000)
	_, _, addr := startHub(t, store, hub.Config{Vanilla: true, Metrics: metrics.NewRegistry()})
	tap := &adaptTap{}
	until := time.Now().Add(3 * time.Second)
	playUntil(t, ClientConfig{
		Addr: addr, ID: 1, Duration: 20 * time.Second,
		Dial: dialTap(tap, func(c net.Conn) net.Conn {
			return &throttledConn{Conn: c, bps: levelZeroBps(store) / 4, until: until}
		}),
	}, tap, func(got []wire.Adapt) bool {
		return len(got) > 1 && got[0].Quality > 0 && got[len(got)-1] == wire.Adapt{Quality: 0, Reason: 3}
	})
}
