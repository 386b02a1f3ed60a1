package hub

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"volcast/internal/codec"
	"volcast/internal/faultnet"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// TestPushFrameCellOrdering proves the pipelined fan-out preserves each
// subscriber's cell order even when serialization runs on a wide worker
// pool that completes slots out of order: every delivered frame's cell
// sequence must equal the visibility request order, for every subscriber.
func TestPushFrameCellOrdering(t *testing.T) {
	snap := leakcheck.Take()
	old := par.Workers()
	par.SetWorkers(8)
	t.Cleanup(func() { par.SetWorkers(old) })

	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Vanilla: true,
	})

	// Ground truth: the vanilla request order over the same store content,
	// filtered to cells that actually have a stride-1 block.
	store, err := testFactory(nil)(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := func(frame uint32) []uint32 {
		fi := int(frame) % store.NumFrames()
		req := vivo.VanillaRequest(store.Frame(fi).Occupied)
		ids := make([]uint32, 0, len(req.Cells))
		for _, cr := range req.Cells {
			if store.Block(fi, cr.ID, cr.Stride) != nil {
				ids = append(ids, uint32(cr.ID))
			}
		}
		return ids
	}

	const subs = 3
	const wantFrames = 4
	conns := make([]net.Conn, subs)
	for i := range conns {
		conns[i] = rawJoin(t, addr, uint32(i+1), 0)
	}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			order := map[uint32][]uint32{}
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
					order[cd.Frame] = append(order[cd.Frame], cd.CellID)
				case wire.TypeFrameComplete:
					m, _ := wire.ReadMessage(bytes.NewReader(raw))
					fc := m.(*wire.FrameComplete)
					got := order[fc.Frame]
					if len(got) == 0 {
						continue // joined mid-frame
					}
					completes++
					want := wantOrder(fc.Frame)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("sub %d frame %d: cell order %v, want %v", i, fc.Frame, got, want)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, c := range conns {
		c.Close()
	}
	h.Shutdown()
	snap.Check(t)
}

// TestWriteLoopRecordsSendSpans asserts the hub send path's stage
// coverage: a traced session must attribute serialize AND send spans to
// the subscriber, so deadline misses blame the right stage.
func TestWriteLoopRecordsSendSpans(t *testing.T) {
	snap := leakcheck.Take()
	tr := obs.New(1 << 12)
	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Vanilla: true, Trace: tr,
	})

	conn := rawJoin(t, addr, 7, 0)
	completes := 0
	for completes < 3 {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, typ, err := readRawMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ == wire.TypeFrameComplete {
			completes++
		}
	}
	conn.Close()
	h.Shutdown()

	stages := map[obs.Stage]map[int32]bool{} // stage -> frames covered
	var user int32 = -2
	for _, sp := range tr.Snapshot() {
		if sp.User >= 0 {
			user = sp.User
		}
		if stages[sp.Stage] == nil {
			stages[sp.Stage] = map[int32]bool{}
		}
		stages[sp.Stage][sp.Frame] = true
	}
	if user < 0 {
		t.Fatal("no per-user spans recorded")
	}
	for _, st := range []obs.Stage{obs.StageCull, obs.StageSerialize, obs.StageSend} {
		if len(stages[st]) == 0 {
			t.Errorf("stage %v recorded no spans", st)
		}
	}
	// Send spans must cover (nearly) every serialized frame, not just the
	// first: the vectored writer records one per FrameComplete marker.
	if s, ser := len(stages[obs.StageSend]), len(stages[obs.StageSerialize]); s < ser-1 {
		t.Errorf("send spans cover %d frames, serialize %d — send under-reported", s, ser)
	}
	snap.Check(t)
}

// TestWriterShortWrite drives the vectored writer into a faultnet
// short-write: the client must observe a valid prefix of the stream
// followed by a prompt connection error (no hang, no corrupt frame
// parsed), and the hub must count the writer death.
func TestWriterShortWrite(t *testing.T) {
	snap := leakcheck.Take()
	reg := metrics.NewRegistry()
	cfg := Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Vanilla: true, Metrics: reg, Logf: t.Logf,
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.NewListener(ln, faultnet.Config{
		Seed:              11,
		ShortWriteProb:    1,
		ShortWriteAtWrite: [2]int64{4, 5}, // cut the 4th write op on every conn
	})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := h.Serve(fln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { h.Shutdown(); <-serveDone })

	conn := rawJoin(t, addr(ln), 1, 0)
	defer conn.Close()
	valid := 0
	for {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		raw, _, err := readRawMessage(conn)
		if err != nil {
			break // the injected cut — must arrive promptly, not hang
		}
		if _, err := wire.ReadMessage(bytes.NewReader(raw)); err != nil {
			t.Fatalf("corrupt message before the cut: %v", err)
		}
		valid++
	}
	// Write 1 is the Welcome; the cut lands a few messages into the first
	// burst, so at least one post-handshake message must have parsed.
	if valid == 0 {
		t.Error("no valid messages before the injected short write")
	}
	waitFor(t, "writer death accounting", 5*time.Second, func() bool {
		return reg.Snapshot().Counters["transport.writer.deaths"] >= 1
	})
	h.Shutdown()
	<-serveDone
	snap.Check(t)
}

func addr(ln net.Listener) string { return ln.Addr().String() }

// BenchmarkWriterSteadyState measures the per-message cost of the full
// hub send path — pooled framing, enqueue, vectored writer — against a
// live TCP loopback. The acceptance bar is zero allocations per message
// in the steady state.
func BenchmarkWriterSteadyState(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	reg := metrics.NewRegistry()
	h := &Hub{cfg: Config{
		Metrics: reg, Logf: func(string, ...any) {},
		WriteTimeout: 10 * time.Second, HeartbeatEvery: -1, QueueDepth: 1024,
	}}
	s := &session{hub: h}
	s.cDropsEnqueue = reg.Counter("bench.drops")
	c := &subscriber{
		conn:  conn,
		out:   make(chan outBuf, 1024),
		done:  make(chan struct{}),
		drain: make(chan struct{}),
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(c)
	}()

	msg := &wire.CellData{Frame: 1, CellID: 2, Stride: 1, Payload: make([]byte, 1024)}
	// The producer runs in lockstep bursts and waits for the writer to
	// drain between them, so the circulating buffer set stays bounded and
	// the pool actually recycles (unbounded in-flight depth would read as
	// pool misses, measuring queue pressure rather than the send path).
	syncPoint := func() {
		for len(c.out) > 0 {
			time.Sleep(5 * time.Microsecond)
		}
	}
	// Warm the pool, the writer's scratch arrays, and the kernel-facing
	// iovec cache, then let one GC settle so the timed loop starts from a
	// quiesced heap.
	for i := 0; i < 128; i++ {
		buf, err := wire.NewBuffer(msg)
		if err != nil {
			b.Fatal(err)
		}
		s.enqueue(c, outBuf{buf: buf, fc: -1})
	}
	syncPoint()
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := wire.NewBuffer(msg)
		if err != nil {
			b.Fatal(err)
		}
		if !s.enqueue(c, outBuf{buf: buf, fc: -1}) {
			b.Fatal("enqueue failed below queue depth")
		}
		if i%64 == 63 {
			syncPoint()
		}
	}
	syncPoint()
	b.StopTimer()
	c.close()
	<-writerDone
	conn.Close()
	<-drained
}

// BenchmarkPushFrame measures one tick of the served path — cull, resolve,
// deliver — for 4 and 16 subscribers whose queues are emptied after every
// frame, so no enqueue ever drops. The subscribers are never-seen
// (whole-frame requests) and alternate between the full rung for the
// layer-aware and the coarse rung for the legacy, so a frame frames every
// cell at two rungs and fans each out to half the set. The frame numbers
// stop short of the once-a-second pass, which would move those levels.
func BenchmarkPushFrame(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			_, s := bareSession(b, Config{NewStore: testFactory(nil), Logf: func(string, ...any) {}})
			subs := make([]*subscriber, n)
			for i := range subs {
				subs[i] = bareSub(i%2, i%2 == 0)
				subs[i].sub = uint32(i + 1)
				if !s.addSub(subs[i]) {
					b.Fatal("addSub")
				}
			}
			drain := func() {
				for _, c := range subs {
					for len(c.out) > 0 {
						(<-c.out).buf.Release()
					}
				}
			}
			s.pushFrame(0)
			drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.pushFrame(i % s.fps)
				drain()
			}
		})
	}
}

// TestEnqueueDropUsesHoistedCounter pins the hot-path counter hoist:
// session.enqueue charges drops to the *metrics.Counter resolved once in
// New (Hub.cEnqueueDrops), not to a per-call registry lookup. The hoist
// must still land every drop on the same registry key the dashboards
// read, both hub-wide and per session.
func TestEnqueueDropUsesHoistedCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	h, err := New(Config{
		NewStore: func(uint32, codec.BlockCache) (*vivo.Store, error) { return nil, nil },
		Metrics:  reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	s := &session{hub: h}
	s.cDropsEnqueue = reg.Counter("hub.session.0.drops.enqueue")
	c := &subscriber{
		out:   make(chan outBuf, 1),
		done:  make(chan struct{}),
		drain: make(chan struct{}),
	}
	fill := func() outBuf {
		b, err := wire.NewBuffer(&wire.Ping{Seq: 1})
		if err != nil {
			t.Fatal(err)
		}
		return outBuf{buf: b, fc: -1}
	}
	if !s.enqueue(c, fill()) {
		t.Fatal("enqueue below queue depth failed")
	}
	const drops = 3
	for i := 0; i < drops; i++ {
		if s.enqueue(c, fill()) {
			t.Fatal("enqueue above queue depth succeeded")
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["transport.drops.enqueue"]; got != drops {
		t.Errorf("transport.drops.enqueue = %d, want %d", got, drops)
	}
	if got := snap.Counters["hub.session.0.drops.enqueue"]; got != drops {
		t.Errorf("hub.session.0.drops.enqueue = %d, want %d", got, drops)
	}
}
