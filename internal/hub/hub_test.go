package hub

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/metrics"
	"volcast/internal/pointcloud"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// testFactory builds small identical-content stores for every scene
// (fixed seed), counting invocations, through the provided encode tier
// view when one is wired.
func testFactory(builds *atomic.Int64) func(uint32, codec.BlockCache) (*vivo.Store, error) {
	return func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
		if builds != nil {
			builds.Add(1)
		}
		video := pointcloud.SynthVideo(pointcloud.SynthConfig{
			Frames: 4, FPS: 30, PointsPerFrame: 1500, Seed: 7, Sway: 1,
		})
		b, _ := video.Bounds()
		g, err := cell.NewGrid(b, cell.Size50)
		if err != nil {
			return nil, err
		}
		enc := codec.NewEncoder(codec.DefaultParams())
		if blocks != nil {
			enc = enc.Cached(blocks)
		}
		return vivo.BuildStore(video, g, enc, []int{1, 2})
	}
}

func startHub(t *testing.T, cfg Config) (*Hub, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	go func() {
		if err := h.ListenAndServe("127.0.0.1:0", ready); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := <-ready
	t.Cleanup(h.Shutdown)
	return h, addr
}

// rawJoin dials and completes the Hello/Welcome handshake for a scene,
// returning the raw connection.
func rawJoin(t *testing.T, addr string, id, scene uint32) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, &wire.Hello{ClientID: id, Name: "raw", Scene: scene}); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := wire.ReadMessage(conn)
	if err != nil {
		conn.Close()
		t.Fatalf("welcome: %v", err)
	}
	if _, ok := msg.(*wire.Welcome); !ok {
		conn.Close()
		t.Fatalf("expected Welcome, got %v", msg.Type())
	}
	return conn
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStoreValidation covers what the transport.Server facade used to
// reject at construction: a hub needs a store factory, and a factory that
// yields no content (nil, zero frames, an error) fails the first join —
// the client is turned away before Welcome and no session is hosted.
func TestStoreValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("hub without a NewStore factory accepted")
	}
	for name, factory := range map[string]func(uint32, codec.BlockCache) (*vivo.Store, error){
		"nil store":   func(uint32, codec.BlockCache) (*vivo.Store, error) { return nil, nil },
		"empty store": func(uint32, codec.BlockCache) (*vivo.Store, error) { return &vivo.Store{}, nil },
		"build error": func(uint32, codec.BlockCache) (*vivo.Store, error) { return nil, io.ErrUnexpectedEOF },
	} {
		t.Run(name, func(t *testing.T) {
			h, addr := startHub(t, Config{NewStore: factory, HeartbeatEvery: -1, ReapAfter: -1})
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := wire.WriteMessage(conn, &wire.Hello{ClientID: 1, Name: "raw"}); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if msg, err := wire.ReadMessage(conn); err == nil {
				t.Errorf("join answered with %v, want the connection closed", msg.Type())
			}
			if n := h.NumSessions(); n != 0 {
				t.Errorf("NumSessions = %d after a failed first join", n)
			}
		})
	}
}

func TestConcurrentJoinDistinctScenes(t *testing.T) {
	snap := leakcheck.Take()
	var builds atomic.Int64
	h, addr := startHub(t, Config{NewStore: testFactory(&builds), HeartbeatEvery: -1, ReapAfter: -1})

	const scenes = 6
	conns := make([]net.Conn, scenes)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < scenes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rawJoin(t, addr, uint32(100+i), uint32(i))
			mu.Lock()
			conns[i] = c
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := h.NumSessions(); got != scenes {
		t.Errorf("NumSessions = %d, want %d", got, scenes)
	}
	if got := h.NumClients(); got != scenes {
		t.Errorf("NumClients = %d, want %d", got, scenes)
	}
	if got := builds.Load(); got != scenes {
		t.Errorf("store builds = %d, want %d (one per scene)", got, scenes)
	}
	for _, c := range conns {
		c.Close()
	}
	h.Shutdown()
	snap.Check(t)
}

func TestConcurrentJoinSameSceneBuildsOnce(t *testing.T) {
	snap := leakcheck.Take()
	var builds atomic.Int64
	h, addr := startHub(t, Config{NewStore: testFactory(&builds), HeartbeatEvery: -1, ReapAfter: -1})

	const n = 8
	conns := make([]net.Conn, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rawJoin(t, addr, uint32(200+i), 3)
			mu.Lock()
			conns[i] = c
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("store builds = %d, want 1 (singleflight)", got)
	}
	if got := h.NumSessions(); got != 1 {
		t.Errorf("NumSessions = %d, want 1", got)
	}
	for _, c := range conns {
		c.Close()
	}
	h.Shutdown()
	snap.Check(t)
}

func TestLastLeaveReapsSession(t *testing.T) {
	snap := leakcheck.Take()
	var builds atomic.Int64
	reg := metrics.NewRegistry()
	h, addr := startHub(t, Config{
		NewStore: testFactory(&builds), HeartbeatEvery: -1,
		ReapAfter: 150 * time.Millisecond, Metrics: reg,
	})

	conn := rawJoin(t, addr, 1, 5)
	waitFor(t, "session creation", 5*time.Second, func() bool { return h.NumSessions() == 1 })
	conn.Close()
	waitFor(t, "last-leave reap", 5*time.Second, func() bool { return h.NumSessions() == 0 })
	if got := reg.Snapshot().Counters["hub.sessions.reaped"]; got != 1 {
		t.Errorf("hub.sessions.reaped = %d, want 1", got)
	}

	// The next join rebuilds the scene from scratch.
	conn2 := rawJoin(t, addr, 2, 5)
	waitFor(t, "session rebuild", 5*time.Second, func() bool { return h.NumSessions() == 1 })
	if got := builds.Load(); got != 2 {
		t.Errorf("store builds = %d, want 2 (reap then rebuild)", got)
	}
	conn2.Close()
	h.Shutdown()
	snap.Check(t)
}

func TestShutdownDrainsEverySession(t *testing.T) {
	snap := leakcheck.Take()
	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		DrainTimeout: time.Second,
	})

	// Two clients in each of three scenes, each with a reader pumping the
	// stream so the drain can flush.
	const scenes, perScene = 3, 2
	var wg sync.WaitGroup
	byes := make(chan struct{}, scenes*perScene)
	for sc := 0; sc < scenes; sc++ {
		for k := 0; k < perScene; k++ {
			conn := rawJoin(t, addr, uint32(sc*10+k), uint32(sc))
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				for {
					conn.SetReadDeadline(time.Now().Add(10 * time.Second))
					msg, err := wire.ReadMessage(conn)
					if err != nil {
						return // severed after drain budget — acceptable
					}
					if _, ok := msg.(*wire.Bye); ok {
						byes <- struct{}{}
						return
					}
				}
			}(conn)
		}
	}
	waitFor(t, "all clients registered", 5*time.Second, func() bool {
		return h.NumClients() == scenes*perScene
	})
	h.Shutdown()
	wg.Wait()
	if got := h.NumClients(); got != 0 {
		t.Errorf("NumClients after shutdown = %d, want 0", got)
	}
	if got := len(byes); got != scenes*perScene {
		t.Errorf("clean Bye received by %d clients, want %d", got, scenes*perScene)
	}
	snap.Check(t)
}

// readRawMessage reads one length-framed wire message and returns its
// full framed bytes (length prefix included) plus the message type.
func readRawMessage(conn net.Conn) ([]byte, wire.MsgType, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > wire.MaxMessageSize {
		return nil, 0, fmt.Errorf("bad frame length %d", n)
	}
	buf := make([]byte, 4+int(n))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(conn, buf[4:]); err != nil {
		return nil, 0, err
	}
	return buf, wire.MsgType(buf[4]), nil
}

// TestFanOutParity proves the shared-buffer fan-out delivers
// byte-identical frames to every subscriber, and that the bytes carry
// exactly the store's blocks (what the old per-client serialization
// produced).
func TestFanOutParity(t *testing.T) {
	snap := leakcheck.Take()
	var builds atomic.Int64
	h, addr := startHub(t, Config{
		NewStore: testFactory(&builds), HeartbeatEvery: -1, ReapAfter: -1,
		Vanilla: true, // pose-free: every subscriber requests the same cells
	})

	const subs = 4
	const wantFrames = 3
	conns := make([]net.Conn, subs)
	for i := range conns {
		conns[i] = rawJoin(t, addr, uint32(i+1), 0)
	}
	// Per subscriber: frame → sorted raw CellData frames plus a count of
	// complete frames observed.
	type frameData struct {
		cells    map[string]int // raw bytes → multiplicity
		complete bool
	}
	collected := make([]map[uint32]*frameData, subs)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := map[uint32]*frameData{}
			collected[i] = got
			var inFrame *frameData
			var current uint32
			completes := 0
			for completes < wantFrames {
				conns[i].SetReadDeadline(time.Now().Add(10 * time.Second))
				raw, typ, err := readRawMessage(conns[i])
				if err != nil {
					t.Errorf("sub %d: %v", i, err)
					return
				}
				switch typ {
				case wire.TypeCellData:
					m, err := wire.ReadMessage(bytes.NewReader(raw))
					if err != nil {
						t.Errorf("sub %d: decode: %v", i, err)
						return
					}
					cd := m.(*wire.CellData)
					if inFrame == nil || cd.Frame != current {
						current = cd.Frame
						inFrame = &frameData{cells: map[string]int{}}
						got[current] = inFrame
					}
					inFrame.cells[string(raw)]++
				case wire.TypeFrameComplete:
					if inFrame != nil {
						inFrame.complete = true
						completes++
						inFrame = nil
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Compare every frame all subscribers completed, byte for byte.
	common := 0
	for frame, ref := range collected[0] {
		if !ref.complete {
			continue
		}
		sharedByAll := true
		for i := 1; i < subs; i++ {
			fd := collected[i][frame]
			if fd == nil || !fd.complete {
				sharedByAll = false
				break
			}
			if len(fd.cells) != len(ref.cells) {
				t.Errorf("frame %d: sub %d has %d distinct cell buffers, sub 0 has %d",
					frame, i, len(fd.cells), len(ref.cells))
				continue
			}
			for raw, n := range ref.cells {
				if fd.cells[raw] != n {
					t.Errorf("frame %d: sub %d cell bytes diverge from sub 0", frame, i)
					break
				}
			}
		}
		if sharedByAll {
			common++
		}
	}
	if common == 0 {
		t.Error("no frame was completed by all subscribers — nothing compared")
	}

	// Ground truth: the payload inside each CellData is the store's block
	// for that (frame, cell, stride), i.e. what per-client serialization
	// of the same request produced before the refactor.
	store, err := testFactory(nil)(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for frame, fd := range collected[0] {
		if !fd.complete {
			continue
		}
		for raw := range fd.cells {
			m, err := wire.ReadMessage(bytes.NewReader([]byte(raw)))
			if err != nil {
				t.Fatal(err)
			}
			cd := m.(*wire.CellData)
			blk := store.Block(int(frame)%store.NumFrames(), cell.ID(cd.CellID), int(cd.Stride))
			if blk == nil {
				t.Errorf("frame %d cell %d stride %d: no such block in store", frame, cd.CellID, cd.Stride)
				continue
			}
			if string(blk.Data) != string(cd.Payload) {
				t.Errorf("frame %d cell %d: payload diverges from store block", frame, cd.CellID)
			}
			if subs > 1 && !cd.Multicast {
				t.Errorf("frame %d cell %d: shared by %d subscribers but not marked multicast", frame, cd.CellID, subs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no cell payloads verified against the store")
	}

	for _, c := range conns {
		c.Close()
	}
	h.Shutdown()
	snap.Check(t)
}

func TestCrossSessionCacheSharing(t *testing.T) {
	snap := leakcheck.Take()
	reg := metrics.NewRegistry()
	tier := blockcache.New("encode", 32<<20, reg)
	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Metrics: reg, EncodeTier: tier,
	})

	// Scene 0 builds first (cold tier: misses), scene 1 builds the same
	// content and must hit the shared encode tier.
	c0 := rawJoin(t, addr, 1, 0)
	waitFor(t, "scene 0", 5*time.Second, func() bool { return h.NumSessions() == 1 })
	// A store serves from frame 0 and builds the rest behind it: let scene
	// 0's finish, so scene 1 meets every block already encoded, and scene
	// 1's, so the counters below cover the whole video.
	waitBuilt := func(scene uint32) {
		h.mu.Lock()
		s := h.sessions[scene]
		h.mu.Unlock()
		s.store.Wait()
	}
	waitBuilt(0)
	c1 := rawJoin(t, addr, 2, 1)
	waitFor(t, "scene 1", 5*time.Second, func() bool { return h.NumSessions() == 2 })
	waitBuilt(1)

	counters := reg.Snapshot().Counters
	if miss0 := counters["blockcache.encode.session.0.misses"]; miss0 == 0 {
		t.Error("scene 0 (built cold) recorded no encode-tier misses")
	}
	if hits1 := counters["blockcache.encode.session.1.hits"]; hits1 == 0 {
		t.Error("scene 1 (same content) recorded no encode-tier hits — cross-session sharing broken")
	}
	if miss1 := counters["blockcache.encode.session.1.misses"]; miss1 != 0 {
		t.Errorf("scene 1 re-encoded %d blocks that scene 0 already paid for", miss1)
	}

	c0.Close()
	c1.Close()
	h.Shutdown()
	snap.Check(t)
}

// heldBuild is testFactory's content with every cell outside frame 0 held
// at the encoder until release: BuildStore returns at frame 0 and the rest
// of the build waits. With boom set those cells panic instead. It keeps
// the last store it built.
type heldBuild struct {
	pass    map[codec.CacheKey]bool
	boom    bool
	gate    chan struct{}
	release func()
	mu      sync.Mutex
	store   *vivo.Store
}

func newHeldBuild(t *testing.T) *heldBuild {
	t.Helper()
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{Frames: 4, FPS: 30, PointsPerFrame: 1500, Seed: 7, Sway: 1})
	b, _ := video.Bounds()
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	rec := &keyRecorder{keys: map[codec.CacheKey]bool{}}
	first := &pointcloud.Video{FPS: video.FPS, Frames: video.Frames[:1]}
	st, err := vivo.BuildStore(first, g, codec.NewEncoder(codec.DefaultParams()).Cached(rec), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	st.Wait()
	hb := &heldBuild{pass: rec.keys, gate: make(chan struct{})}
	hb.release = sync.OnceFunc(func() { close(hb.gate) })
	return hb
}

func (hb *heldBuild) factory(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
	st, err := testFactory(nil)(scene, heldCache{hb, blocks})
	hb.mu.Lock()
	hb.store = st
	hb.mu.Unlock()
	return st, err
}

func (hb *heldBuild) built() *vivo.Store {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return hb.store
}

// heldCache gates a scene's view of the encode tier for heldBuild.
type heldCache struct {
	hb    *heldBuild
	inner codec.BlockCache
}

func (c heldCache) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	if !c.hb.pass[key] {
		if c.hb.boom {
			panic("encoder blew up")
		}
		<-c.hb.gate
	}
	return c.inner.Block(key, encode)
}

type keyRecorder struct {
	mu   sync.Mutex
	keys map[codec.CacheKey]bool
}

func (r *keyRecorder) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	r.mu.Lock()
	r.keys[key] = true
	r.mu.Unlock()
	return encode()
}

// TestShutdownJoinsBuild: the hub never leaves a store build running. A
// scene joins at frame 0 while the rest of its build is held; Shutdown
// returns only once the build has stored every frame, and the reaper
// claims an emptied scene only once its build is over, so the scene's
// encode-tier counters are forgotten after the last encode, not before.
func TestShutdownJoinsBuild(t *testing.T) {
	snap := leakcheck.Take()
	t.Run("shutdown", func(t *testing.T) {
		hb := newHeldBuild(t)
		h, addr := startHub(t, Config{NewStore: hb.factory, HeartbeatEvery: -1, ReapAfter: -1, DrainTimeout: 200 * time.Millisecond})
		defer hb.release() // before startHub's Shutdown, which waits for the build
		conn := rawJoin(t, addr, 1, 0)
		defer conn.Close()
		stopped := make(chan struct{})
		go func() {
			h.Shutdown()
			close(stopped)
		}()
		select {
		case <-stopped:
			t.Fatal("Shutdown returned while the store build was held")
		case <-time.After(300 * time.Millisecond):
		}
		hb.release()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown did not return after the build was released")
		}
		// Every frame was stored before Shutdown returned: none of these
		// reads waits.
		waits := metrics.Default().Counter("vivo.frame_waits")
		before := waits.Value()
		st := hb.built()
		for fi := 0; fi < st.NumFrames(); fi++ {
			st.Frame(fi)
		}
		if d := waits.Value() - before; d != 0 {
			t.Errorf("%d frames still building after Shutdown returned", d)
		}
	})
	t.Run("reap", func(t *testing.T) {
		hb := newHeldBuild(t)
		reg, tierReg := metrics.NewRegistry(), metrics.NewRegistry()
		h, addr := startHub(t, Config{
			NewStore: hb.factory, HeartbeatEvery: -1, Metrics: reg,
			EncodeTier: blockcache.New("encode", 32<<20, tierReg), ReapAfter: 100 * time.Millisecond,
		})
		defer hb.release()
		rawJoin(t, addr, 1, 0).Close()
		if !strings.Contains(tierReg.String(), ".session.0.") {
			t.Fatal("the scene registered no encode-tier session counter: the test checks nothing")
		}
		time.Sleep(500 * time.Millisecond) // five grace periods
		if h.NumSessions() != 1 || !strings.Contains(tierReg.String(), ".session.0.") {
			t.Fatal("the scene was claimed, its counters forgotten, with its build still held")
		}
		hb.release()
		waitFor(t, "the reap once the build ends", 10*time.Second, func() bool {
			return reg.Snapshot().Counters["hub.sessions.reaped"] == 1
		})
		h.Shutdown()
		if dump := tierReg.String(); strings.Contains(dump, ".session.0.") {
			t.Errorf("the reaped scene's encode-tier counters are still registered:\n%s", dump)
		}
	})
	snap.Check(t)
}

// TestFramePanicFailsOnlyItsScene: an encode that panicked after frame 0
// is re-raised by every read of that frame, and the hub turns it into the
// failure of that one scene, as a build error fails one join: whichever
// reader meets it — the frame loop or a pull request — drops the scene's
// subscribers and takes the scene out of the table with its counters,
// while another scene streams on and the next join builds it afresh.
func TestFramePanicFailsOnlyItsScene(t *testing.T) {
	snap := leakcheck.Take()
	// dropped reads conn until the hub closes it.
	dropped := func(t *testing.T, conn net.Conn) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, _, err := readRawMessage(conn); err != nil {
				if isTimeout(err) {
					t.Fatal("the failed scene's subscriber was not dropped")
				}
				return
			}
		}
	}
	for _, tc := range []struct {
		name string
		fps  int  // 1: the frame loop is far from frame 1 when the pull asks
		pull bool // read the bad frame through servePull
	}{{"frame loop", 0, false}, {"pull", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			hb := newHeldBuild(t)
			hb.boom = true
			var builds atomic.Int64
			good := testFactory(nil)
			reg := metrics.NewRegistry()
			h, addr := startHub(t, Config{
				NewStore: func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
					if scene == 1 {
						return good(scene, blocks)
					}
					builds.Add(1)
					return hb.factory(scene, blocks)
				},
				FPS: tc.fps, HeartbeatEvery: -1, ReapAfter: -1, Metrics: reg,
			})
			other := rawJoin(t, addr, 2, 1)
			defer other.Close()
			bad := rawJoin(t, addr, 1, 0)
			defer bad.Close()
			if tc.pull {
				if err := wire.WriteMessage(bad, &wire.SegmentRequest{Frame: 1, Cells: []wire.CellRef{{CellID: 0, Stride: 1}}}); err != nil {
					t.Fatal(err)
				}
			}
			dropped(t, bad)
			waitFor(t, "the failed scene out of the table", 5*time.Second, func() bool { return h.NumSessions() == 1 })
			if n := reg.Snapshot().Counters["hub.sessions.failed"]; n != 1 {
				t.Errorf("hub.sessions.failed = %d, want 1", n)
			}
			if dump := reg.String(); strings.Contains(dump, "hub.session.0.") {
				t.Errorf("the failed scene's counters are still registered:\n%s", dump)
			}

			// The other scene still streams.
			other.SetReadDeadline(time.Now().Add(10 * time.Second))
			for fcs := 0; fcs < 3; {
				_, typ, err := readRawMessage(other)
				if err != nil {
					t.Fatalf("scene 1 stopped streaming beside the failed scene: %v", err)
				}
				if typ == wire.TypeFrameComplete {
					fcs++
				}
			}
			// The next join of the failed scene builds it afresh.
			rawJoin(t, addr, 3, 0).Close()
			if n := builds.Load(); n != 2 {
				t.Errorf("scene 0 built %d times, want 2 (a rejoin rebuilds a failed scene)", n)
			}
			h.Shutdown()
		})
	}
	snap.Check(t)
}
