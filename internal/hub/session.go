package hub

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"volcast/internal/abr"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/tier"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// session is one hosted scene: a store, a visibility pipeline, a frame
// loop, and the set of subscribers it fans out to.
type session struct {
	hub   *Hub
	scene uint32
	// label is the scene id in decimal — the key under which the
	// session's metrics, events, and SLO state are filed.
	label string
	store *vivo.Store
	vis   *vivo.Visibility
	fps   int

	mu   sync.Mutex
	subs map[*subscriber]struct{}
	// closed stops new registrations once the reaper or shutdown claimed
	// the session; set only via markClosed, or by fail.
	closed bool
	// emptySince is when the last subscriber left (zero while populated
	// or never joined... sessions are only built on a join, so it starts
	// zero and is armed by the first removeSub that empties the set).
	emptySince time.Time

	ctx    context.Context
	cancel context.CancelFunc
	// done closes when frameLoop exits; the reaper waits on it.
	done chan struct{}
	// posed closes, once, at the first PoseUpdate any subscriber sends:
	// frameLoop's first push waits for it or for one interval.
	posed     chan struct{}
	posedOnce sync.Once

	// Per-session counters (hub.session.<scene>.*), resolved once at
	// build time so the frame loop never does registry lookups.
	cFrames, cCells, cBytes   *metrics.Counter
	cConnects, cDisconnects   *metrics.Counter
	cDropsEnqueue, cDropsSlow *metrics.Counter
	// Per-stage budget-violation counters
	// (hub.session.<scene>.budget_violations.*).
	cViolCull, cViolSerialize, cViolSend *metrics.Counter

	// Sliding-window instruments (hub.session.<scene>.window.*): the
	// SLO engine and /sessions read these for "the last ~10s" instead
	// of lifetime totals. All nil-safe, so the bare sessions tests and
	// benchmarks build skip the whole plane at zero cost.
	wFrameMS    *metrics.Windowed        // push→socket latency (ms), one sample per delivered FrameComplete
	wMisses     *metrics.WindowedCounter // late deliveries + dropped FCs
	wBudgetViol *metrics.WindowedCounter // per-stage budget violations
}

// outBuf is one pre-serialized wire message headed for a subscriber. The
// pooled buffer is shared across subscribers and immutable once enqueued
// — writers only ever read it — and the enqueue transfers exactly one
// reference to the writer, which releases it after the socket write.
// fc >= 0 marks a FrameComplete for that frame, which is where the
// writer records the Send span. t0, when set on a FrameComplete, is the
// frame's production start: the writer measures t0→socket-write as the
// frame's delivered latency for the windowed SLO instruments.
type outBuf struct {
	buf *wire.Buffer
	fc  int32
	t0  time.Time
}

// subscriber is one connected player within a session.
type subscriber struct {
	conn net.Conn
	id   uint32
	name string
	// sub is the hub-assigned subscriber id, the tracer's user axis for
	// this connection's spans, carried in wire.Welcome.SessionID.
	sub uint32

	mu   sync.Mutex
	pose geom.Pose
	seen bool
	// pull marks a client that drives its own fetching with
	// SegmentRequests; the push frame loop skips it.
	pull bool
	// layers marks a client that advertised HelloFlagLayers: it retains
	// each cell's layered prefix, so quality upgrades of unchanged
	// content ship only the enhancement delta.
	layers bool
	// degrade is the level along the store's ladder that adaptPass moves,
	// on rate (the writer's smoothed throughput) and owed (frames pushed
	// since the last pass); the three belong to the frame loop, like sent.
	degrade int
	rate    *abr.EWMA
	owed    int
	// The writer's measurements since the last pass, which resets them:
	// bytes and ns inside writes, FrameCompletes written, and the start
	// (unix ns) of the write in flight.
	wrote, busyNs, fcsWritten, writeStart atomic.Int64
	// fcDrops counts consecutive frames whose FrameComplete marker could
	// not even be enqueued; crossing SlowClientFrames drops the client.
	fcDrops int
	// sent records, per cell, the exact block and layer-prefix length
	// this subscriber last had enqueued — the basis for delta upgrades
	// (an unchanged block pointer means unchanged content, courtesy of
	// the content-addressed encode tier). Touched only by the session's
	// frame loop, so it needs no lock.
	sent map[cell.ID]sentCell

	out   chan outBuf
	done  chan struct{}
	drain chan struct{}

	closeOnce sync.Once
	drainOnce sync.Once
}

// close severs the connection and releases everything blocked on it: the
// reader (socket closed), the writer and the frame loop (done closed).
// Safe to call from any goroutine, any number of times.
func (c *subscriber) close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.conn.Close()
	})
}

// beginDrain asks the writer to flush queued messages and close.
func (c *subscriber) beginDrain() {
	c.drainOnce.Do(func() { close(c.drain) })
}

// releaseQueued drops the references of whatever the writer will never
// send. The writer calls it on exit, after close() closed done; an
// enqueue that lands behind that drain sees done closed and calls it
// again, so no reference is left in the queue.
func (c *subscriber) releaseQueued() {
	for {
		select {
		case b := <-c.out:
			b.buf.Release()
		default:
			return
		}
	}
}

// addSub registers c, failing when the session was already closed (reaped
// or shut down) so the caller re-resolves the scene.
func (s *session) addSub(c *subscriber) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.subs[c] = struct{}{}
	s.emptySince = time.Time{}
	return true
}

// removeSub unregisters c and arms the empty-session reap grace when it
// was the last subscriber.
func (s *session) removeSub(c *subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.subs[c]; !ok {
		return
	}
	delete(s.subs, c)
	if len(s.subs) == 0 && !s.closed {
		s.emptySince = time.Now()
	}
}

func (s *session) numSubs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// emptyFor reports whether the session has been empty for at least grace.
func (s *session) emptyFor(grace time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && len(s.subs) == 0 && !s.emptySince.IsZero() &&
		time.Since(s.emptySince) >= grace
}

// markClosed claims the session for teardown. The emptiness re-check
// under the same lock closes the race where a join lands between the
// reaper's emptyFor probe and the claim — a populated session is never
// claimed.
func (s *session) markClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.subs) > 0 {
		return false
	}
	s.closed = true
	return true
}

// snapshotSubs returns the current subscriber set without holding the
// lock across any channel work.
func (s *session) snapshotSubs() []*subscriber {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*subscriber, 0, len(s.subs))
	for c := range s.subs {
		out = append(out, c)
	}
	return out
}

// frameLoop ticks at the session's content rate and pushes each frame's
// cells to every subscriber, with multicast marking for shared cells. It
// exits only once the store's build has finished, so Shutdown and the
// reaper never leave an encode running behind a session.
//
// Frame 0 goes out at the first pose a subscriber sends — a push client
// sends one behind its Hello, so it is waiting when the join that built
// the scene reads past its Welcome — or one interval after the start for
// pull clients and peers that send none. The ticker is anchored there.
func (s *session) frameLoop() {
	defer s.hub.wg.Done()
	defer close(s.done)
	defer s.store.Wait()
	defer s.recoverFrame()
	interval := time.Second / time.Duration(s.fps)
	start := time.NewTimer(interval)
	select {
	case <-s.ctx.Done():
		start.Stop()
		return
	case <-s.posed:
		start.Stop()
	case <-start.C:
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for frame := 0; ; frame++ {
		s.pushFrame(frame)
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// sawPose records that a subscriber sent a PoseUpdate; only the first
// does anything (see frameLoop).
func (s *session) sawPose() {
	s.posedOnce.Do(func() { close(s.posed) })
}

// recoverFrame, deferred by every reader of the store, turns a frame's
// re-raised encode panic (vivo's *par.PanicError) into fail; any other
// panic goes on.
func (s *session) recoverFrame() {
	if r := recover(); r != nil {
		pe, ok := r.(*par.PanicError)
		if !ok {
			panic(r)
		}
		s.fail(pe)
	}
}

// fail takes the session out of service when its store cannot produce a
// frame: the encode of a frame after the first panicked, and every read of
// it re-raises the panic. As a build error fails one join, this drops only
// the scene: its subscribers are closed and it leaves the scene table, so
// the next join builds it afresh. Safe to call from several readers.
func (s *session) fail(pe *par.PanicError) {
	h := s.hub
	s.store.Wait() // the other frames still add to the scene's counters
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	h.mu.Lock()
	owned := h.sessions[s.scene] == s
	if owned {
		h.retireLocked(s)
	}
	h.mu.Unlock()
	if owned {
		h.cfg.SLO.Forget(s.label)
		h.cfg.Metrics.Counter("hub.sessions.failed").Inc()
		h.cfg.Logf("hub: scene %d store: %v — session closed", s.scene, pe)
	}
	s.cancel()
	for _, c := range s.snapshotSubs() {
		c.close()
	}
}

// sentCell is one entry of a subscriber's delivery memory: which block
// (by pointer — pointer equality is content equality under the shared
// encode tier) and how many of its layers the client holds.
type sentCell struct {
	blk    *codec.Block
	layers int
}

// bufKey identifies one shared serialized cell buffer within a frame:
// same cell, same delivered rung, same delta base ⇒ same bytes for
// everyone. stride is always a prepared rung's stride (degrade shifts
// saturate at the coarsest rung instead of wrapping the wire's uint8).
// base > 0 marks an upgrade delta: the payload holds only the
// enhancement layers above a retained base-layer prefix.
type bufKey struct {
	id     cell.ID
	stride int
	base   int
}

// want is one cell a subscriber is owed this frame, in the order it is
// owed. stride is the requested density — degrade already applied, not
// yet snapped onto the ladder — and held is what the subscriber provably
// has of the cell: the hub's own delivery memory for a push subscriber,
// a token-verified claim for a pull request, zero for a legacy client.
type want struct {
	id     cell.ID
	stride int
	held   sentCell
}

// frameTable is what one frame's deliveries share: every (cell, rung,
// delta base) is serialized on first use and each later subscriber owed
// the same bytes retains the same buffer — encode once, serialize once,
// enqueue N times. The table holds one reference per buffer until
// release; a nil entry remembers a serialize error so it is counted once.
type frameTable struct {
	// frame is the number the wire carries; fi is the store frame it
	// plays (frame modulo the loop length).
	frame uint32
	fi    int
	// t0 is the frame's production start, from which the writer measures
	// the delivered latency.
	t0 time.Time
	// shared counts the subscribers that requested each cell; more than
	// one marks the cell multicast. The bit depends only on the request
	// overlap, so it lives inside the shared buffer. Nil for a pull
	// request, which is one client's own choice.
	shared map[cell.ID]int
	bufs   map[bufKey]*wire.Buffer
}

func (t *frameTable) release() {
	for _, b := range t.bufs {
		if b != nil {
			b.Release()
		}
	}
}

// resolve maps one want onto store frame fi: the cell's block, the
// prepared rung its stride snaps to (a degraded stride saturates
// at the coarsest rung instead of wrapping the wire's uint8) and the
// layer prefix that rung consumes. A subscriber holding a shallower
// prefix of this very block gets a delta key (base > 0): only the
// enhancement layers travel, the rest is already client-side. blk is nil
// for a cell the store never ingested.
func (s *session) resolve(fi int, w want) (k bufKey, blk *codec.Block, layers int) {
	if blk = s.store.LayeredBlock(fi, w.id); blk == nil {
		return k, nil, 0
	}
	lad := s.store.Ladder()
	rung := lad.RungFor(w.stride)
	k = bufKey{id: w.id, stride: lad.StrideAt(rung)}
	layers = lad.LayersFor(rung, blk.Layers())
	if w.held.blk == blk && w.held.layers < layers {
		k.base = w.held.layers
	}
	return k, blk, layers
}

// deliver is the one path from an assignment to bytes on a subscriber's
// queue: it walks the wants in order, serializes each through the frame's
// table, enqueues one reference per cell and signs off with the
// subscriber's FrameComplete. Cells the store cannot supply or the wire
// cannot frame are skipped — FrameComplete's count tells the client what
// it got — and a full queue ends the burst (the marker is still tried, so
// a peer that is not draining is noticed and eventually dropped). sent,
// when non-nil, is the subscriber's delivery memory: it records what the
// client now holds, only on a successful enqueue, so a dropped buffer
// leaves it describing the client's true state.
func (s *session) deliver(c *subscriber, wants []want, t *frameTable, sent map[cell.ID]sentCell) {
	cfg := &s.hub.cfg
	defer cfg.Trace.Begin(int(t.frame), int(c.sub), obs.StageSerialize).End()
	var cells, bytes uint64
	for _, w := range wants {
		k, blk, layers := s.resolve(t.fi, w)
		if blk == nil {
			continue
		}
		b, built := t.bufs[k]
		if !built {
			// Every tier of a cell slices the same encode: the base-layer
			// bytes a degraded subscriber receives alias the full block.
			var err error
			b, err = wire.NewBuffer(&wire.CellData{
				Frame:      t.frame,
				CellID:     uint32(k.id),
				Stride:     tier.WireStride(k.stride),
				Multicast:  t.shared[k.id] > 1,
				Payload:    layerPayload(blk, k.base, layers),
				Layers:     uint8(layers),
				BaseLayers: uint8(k.base),
			})
			if err != nil {
				cfg.Metrics.Counter("hub.serialize.errors").Inc()
				cfg.Logf("hub: scene %d cell %d serialize: %v", s.scene, k.id, err)
			}
			t.bufs[k] = b
		}
		if b == nil {
			continue
		}
		n := b.Len()
		b.Retain(1)
		if !s.enqueue(c, outBuf{buf: b, fc: -1}) {
			break
		}
		cells++
		bytes += uint64(n)
		if sent != nil {
			sent[w.id] = sentCell{blk: blk, layers: layers}
		}
	}
	fcOK := s.enqueueMsg(c, &wire.FrameComplete{Frame: t.frame, Cells: uint32(cells), Bytes: bytes}, int32(t.frame), t.t0)
	if !fcOK {
		// Never delivered: the writer will not see this frame, so the miss
		// is counted here (delivered-but-late misses are the writer's).
		s.wMisses.Add(1)
	}
	s.cCells.Add(int64(cells))
	s.cBytes.Add(int64(bytes))
	s.noteSlowClient(c, fcOK)
}

// pushFrame is one tick of the served path: cull every push subscriber's
// viewport into a request, once a second of content move the levels
// (adaptPass), then deliver each request at its subscriber's level through
// a table shared for the frame. Delivery is sequential — framing a cell is
// a header plus one copy of a block prefix — and the overlap that matters
// survives it: each subscriber's writer is its own goroutine, so the first
// cell is on a socket while later ones are still being framed.
func (s *session) pushFrame(frame int) {
	subs := s.snapshotSubs()
	if len(subs) == 0 {
		return
	}
	cfg := &s.hub.cfg
	t := &frameTable{
		frame:  uint32(frame),
		fi:     frame % s.store.NumFrames(),
		t0:     time.Now(),
		shared: map[cell.ID]int{},
		bufs:   map[bufKey]*wire.Buffer{},
	}
	defer t.release()
	occ := s.store.Frame(t.fi).Occupied

	cull := cfg.Trace.Begin(frame, obs.PipelineUser, obs.StageCull)
	push := subs[:0]
	reqs := make([]vivo.Request, 0, len(subs))
	for _, c := range subs {
		c.mu.Lock()
		pose, seen, pull := c.pose, c.seen, c.pull
		c.mu.Unlock()
		if pull {
			continue // client fetches for itself
		}
		if c.sent == nil {
			c.sent = map[cell.ID]sentCell{}
		}
		var req vivo.Request
		if !seen || cfg.Vanilla {
			req = vivo.VanillaRequest(occ)
		} else {
			req = s.vis.Request(occ, pose)
		}
		for _, cr := range req.Cells {
			t.shared[cr.ID]++
		}
		push, reqs = append(push, c), append(reqs, req)
	}
	cull.End()
	if b := cfg.Trace.StageBudget(obs.StageCull); b > 0 && time.Since(t.t0) > b {
		s.cViolCull.Inc()
		s.wBudgetViol.Add(1)
	}

	if frame > 0 && frame%s.fps == 0 {
		s.adaptPass(t.fi, push, reqs)
	}

	serStart := time.Now()
	lad := s.store.Ladder()
	var wants []want
	for i, c := range push {
		c.owed++
		wants = wants[:0]
		for _, cr := range abr.AtLevel(lad, reqs[i], c.degrade).Cells {
			w := want{id: cr.ID, stride: cr.Stride}
			if c.layers {
				w.held = c.sent[cr.ID]
			}
			wants = append(wants, w)
		}
		s.deliver(c, wants, t, c.sent)
	}
	if b := cfg.Trace.StageBudget(obs.StageSerialize); b > 0 && time.Since(serStart) > b {
		s.cViolSerialize.Inc()
		s.wBudgetViol.Add(1)
	}
	s.cFrames.Inc()
}

// layerPayload is what a subscriber holding the first `base` layers of
// blk needs to hold `layers` of them: the enhancement delta, or with
// nothing held the whole prefix.
func layerPayload(blk *codec.Block, base, layers int) []byte {
	if base > 0 {
		return blk.Delta(base, layers)
	}
	return blk.Prefix(layers)
}

// maxWriteBatch bounds one vectored write: enough to coalesce a frame's
// burst into a single writev, small enough that the scratch arrays stay
// resident in cache and a slow peer's deadline still bites per batch.
const maxWriteBatch = 64

// batchWriter drains one subscriber's queue into vectored writes. Its
// state lives in named fields rather than closure captures so the hot
// flush path is a plain annotated method the hotpathalloc gate can
// check; failure accounting (death counter, log line) stays with the
// unannotated caller.
type batchWriter struct {
	s *session
	c *subscriber
	// batch and scratch persist across wakeups so the steady state
	// allocates nothing: net.Buffers.WriteTo consumes the slice header it
	// is given, so each batch wraps a fresh view of the same backing
	// array, nilled out afterwards to not pin released buffers.
	batch   []outBuf
	scratch [][]byte
	// sendStart/sendDur accumulate the Send span across partial batches
	// until a FrameComplete closes it out.
	sendStart time.Time
	sendDur   time.Duration
	// Send budget resolved once: the windowed violation accounting below
	// compares against it per delivered frame.
	sendBudget time.Duration
	// until, once set by drain, replaces the per-write timeout with the
	// drain budget's absolute deadline.
	until time.Time
}

// fill moves whatever is already queued into the batch without blocking,
// so one wakeup's backlog coalesces into one vectored write.
func (w *batchWriter) fill() {
	for len(w.batch) < maxWriteBatch {
		select {
		case b := <-w.c.out:
			w.batch = append(w.batch, b)
		default:
			return
		}
	}
}

// flush writes everything batched in one vectored write (net.Buffers →
// writev on a TCP conn), records send spans and windowed delivery
// latency for FrameComplete buffers, and releases every buffer whatever
// the outcome. The caller owns counting and logging the returned socket
// error.
//
//vollint:hotpath
func (w *batchWriter) flush() error {
	if len(w.batch) == 0 {
		return nil
	}
	cfg := &w.s.hub.cfg
	for i, b := range w.batch {
		w.scratch[i] = b.buf.Bytes()
	}
	nb := net.Buffers(w.scratch[:len(w.batch)])
	t0 := time.Now()
	if w.until.IsZero() {
		w.c.conn.SetWriteDeadline(t0.Add(cfg.WriteTimeout))
	} else {
		w.c.conn.SetWriteDeadline(w.until)
	}
	w.c.writeStart.Store(t0.UnixNano())
	n, err := nb.WriteTo(w.c.conn)
	start := w.c.writeStart.Swap(0)
	t1 := time.Now()
	w.c.busyNs.Add(t1.UnixNano() - start)
	w.c.wrote.Add(n)
	if w.sendStart.IsZero() {
		w.sendStart = t0
	}
	w.sendDur += t1.Sub(t0)
	for i := range w.batch {
		w.scratch[i] = nil
	}
	for _, b := range w.batch {
		if err == nil && b.fc >= 0 {
			w.c.fcsWritten.Add(1)
			cfg.Trace.Record(int(b.fc), int(w.c.sub), obs.StageSend, w.sendStart, w.sendDur)
			if w.sendBudget > 0 && w.sendDur > w.sendBudget {
				w.s.cViolSend.Inc()
				w.s.wBudgetViol.Add(1)
			}
			w.sendStart, w.sendDur = time.Time{}, 0
			// The frame is on the socket: t0→now is its delivered
			// latency for the windowed SLO plane.
			if !b.t0.IsZero() {
				lat := time.Since(b.t0)
				w.s.wFrameMS.Observe(float64(lat) / float64(time.Millisecond))
				if lat > obs.DefaultDeadline {
					w.s.wMisses.Add(1)
				}
			}
		}
		b.buf.Release()
	}
	w.batch = w.batch[:0]
	return err
}

// writeLoop is the connection's single owned writer. It drains the
// outbound queue of pre-serialized pooled buffers through a batchWriter,
// emits heartbeat pings, and — on drain — flushes what is queued before
// closing. Exiting for any reason closes the connection and releases
// what was queued.
func (s *session) writeLoop(c *subscriber) {
	defer c.releaseQueued()
	defer c.close()
	cfg := &s.hub.cfg
	var ping <-chan time.Time
	if cfg.HeartbeatEvery > 0 {
		t := time.NewTicker(cfg.HeartbeatEvery)
		defer t.Stop()
		ping = t.C
	}
	var pingSeq uint32
	w := &batchWriter{
		s: s, c: c,
		batch:      make([]outBuf, 0, maxWriteBatch),
		scratch:    make([][]byte, maxWriteBatch),
		sendBudget: cfg.Trace.StageBudget(obs.StageSend),
	}
	writeBatch := func() bool {
		err := w.flush()
		if err != nil {
			s.hub.cWriterDeaths.Inc()
			cfg.Logf("hub: client %d writer died: %v", c.id, err)
		}
		return err == nil
	}
	for {
		select {
		case b := <-c.out:
			w.batch = append(w.batch, b)
			w.fill()
			if !writeBatch() {
				return
			}
		case <-ping:
			pingSeq++
			cfg.Metrics.Counter("transport.pings").Inc()
			pb, err := wire.NewBuffer(&wire.Ping{Seq: pingSeq, T: time.Now().UnixNano()})
			if err != nil {
				return
			}
			w.batch = append(w.batch, outBuf{buf: pb, fc: -1})
			if !writeBatch() {
				return
			}
		case <-c.drain:
			w.drain()
			return
		case <-c.done:
			return
		}
	}
}

// drain is the graceful close: it flushes what is queued through the same
// batched writes — drained frames keep their send spans and windowed
// accounting — and signs off with a Bye. Every write carries the drain
// budget as its deadline, so a past budget fails the next write at once.
func (w *batchWriter) drain() {
	cfg := &w.s.hub.cfg
	w.until = time.Now().Add(cfg.DrainTimeout)
	for {
		w.fill()
		if len(w.batch) == 0 {
			w.c.conn.SetWriteDeadline(w.until)
			if err := wire.WriteMessage(w.c.conn, &wire.Bye{}); err != nil {
				// The goodbye is best-effort, but a failed one is worth
				// counting: it means the peer vanished mid-drain.
				cfg.Metrics.Counter("transport.drain.bye_failed").Inc()
			}
			return
		}
		if w.flush() != nil {
			return
		}
	}
}

// noteSlowClient tracks consecutive frames whose FrameComplete could not
// even be enqueued, and drops a peer that stays that way for
// SlowClientFrames: keeping it would only grow a backlog of stale frames.
// The drop does not wait for the ladder, which moves once a second and
// may not have moved at all — 120 frames at 240 fps is half a pass.
func (s *session) noteSlowClient(c *subscriber, fcEnqueued bool) {
	cfg := &s.hub.cfg
	if cfg.SlowClientFrames < 0 {
		return
	}
	select {
	case <-c.done:
		return // already being torn down; nothing to decide
	default:
	}
	c.mu.Lock()
	if fcEnqueued {
		c.fcDrops = 0
		c.mu.Unlock()
		return
	}
	c.fcDrops++
	drops := c.fcDrops
	c.mu.Unlock()
	if drops >= cfg.SlowClientFrames {
		cfg.Metrics.Counter("transport.drops.slowclient").Inc()
		s.cDropsSlow.Inc()
		cfg.Events.Append(obs.EventSlowDrop, s.label, int(c.sub),
			fmt.Sprintf("client %d not draining for %d frames", c.id, drops))
		cfg.Logf("hub: client %d not draining for %d frames — dropping", c.id, drops)
		c.close()
	}
}

// servePull answers a pull-mode request: a pull is a push whose cell
// list the client chose (it runs its own visibility pipeline), so the
// request becomes wants and takes the same delivery path, with a table of
// its own. Unknown cells are skipped — the FrameComplete's Cells count
// tells the client what it got.
func (s *session) servePull(c *subscriber, req *wire.SegmentRequest) {
	defer s.recoverFrame()
	fi := int(req.Frame) % s.store.NumFrames()
	wants := make([]want, len(req.Cells))
	for i, ref := range req.Cells {
		w := want{id: cell.ID(ref.CellID), stride: int(ref.Stride)}
		// A client that declared a held prefix gets only the enhancement
		// delta — but only when its token proves the held bytes are this
		// very block (looped playback revisits frames; a stale prefix
		// silently corrupts the reassembly otherwise).
		if have := int(ref.HaveLayers); c.layers && have > 0 {
			if blk := s.store.LayeredBlock(fi, w.id); blk != nil && have < blk.Layers() &&
				ref.Token == codec.HashBytes(blk.Prefix(have))[0] {
				w.held = sentCell{blk: blk, layers: have}
			}
		}
		wants[i] = w
	}
	t := &frameTable{frame: req.Frame, fi: fi, t0: time.Now(), bufs: map[bufKey]*wire.Buffer{}}
	defer t.release()
	s.deliver(c, wants, t, nil)
}

// rateCeiling caps a pass's rate sample at this multiple of the whole
// frame's full-density rate — the most any subscriber is owed, so a light
// pass frame cannot cap it under a heavy one. Until the link binds, writes
// fill megabytes of kernel buffer at copy speed; one such sample would
// hold the EWMA over any demand for twenty passes. Above UpHeadroom a free
// link climbs to level 0; one carrying half of it is caught in two passes.
const rateCeiling = 1.4

// adaptPass is the density decision once a second of content: the
// simulator's abr.Controller.Adapt, at the session's fps, on this frame's
// culled requests and each writer's measurements since the last pass. The
// rate is bytes over time inside writes (a write in flight is busy up to
// now): it reads the link when the link binds, above demand when it does
// not. Played is the share of owed frames whose FrameComplete reached the
// socket. A subscriber owed nothing since the last pass keeps its level.
func (s *session) adaptPass(fi int, push []*subscriber, reqs []vivo.Request) {
	lad, size := s.store.Ladder(), s.store.SizeOracle(fi)
	ceiling := rateCeiling * codec.BitrateMbps(float64(vivo.VanillaRequest(s.store.Frame(fi).Occupied).Bytes(size)), s.fps)
	var users []abr.User
	var decided []*subscriber
	for i, c := range push {
		if c.owed == 0 {
			continue
		}
		now := time.Now().UnixNano()
		if st := c.writeStart.Load(); st != 0 && c.writeStart.CompareAndSwap(st, now) {
			c.busyNs.Add(now - st) // the writer adds the rest from now on
		}
		if busy, n := c.busyNs.Swap(0), c.wrote.Swap(0); busy > 0 {
			c.rate.Observe(abr.Sample{Mbps: min(float64(n)*8e3/float64(busy), ceiling)})
		}
		users = append(users, abr.User{
			Culled: reqs[i], Level: c.degrade, PredictedMbps: c.rate.Predict(),
			PlannedBytes: abr.AtLevel(lad, reqs[i], c.degrade).Bytes(size),
			Played:       min(1, float64(c.fcsWritten.Swap(0))/float64(c.owed)),
		})
		decided = append(decided, c)
		c.owed = 0
	}
	levels, _, _ := abr.NewController(abr.DefaultConfig()).Adapt(s.store, fi, s.fps, users)
	for u, c := range decided {
		old, level := c.degrade, levels[u]
		if level == old {
			continue
		}
		c.degrade = level
		reason := abr.ActionQualityDown
		if level < old {
			reason = abr.ActionQualityUp
		}
		s.enqueueMsg(c, &wire.Adapt{Quality: uint8(level), Reason: uint8(reason)}, -1, time.Time{})
		s.hub.cfg.Logf("hub: client %d adaptation level %d -> %d (rate %.1f Mbps, demand %.1f, %.2f played)", c.id, old, level,
			users[u].PredictedMbps, codec.BitrateMbps(float64(users[u].PlannedBytes), s.fps), users[u].Played)
	}
}

// enqueue delivers a pre-serialized buffer to the subscriber's writer
// without blocking the frame loop; a persistently full queue (slow
// client) drops frames, which is the right failure mode for real-time
// media. The call consumes exactly one buffer reference regardless of
// outcome — on success it transfers to the writer, on failure it is
// released here — so callers never touch the buffer again after an
// enqueue (leakcheck'd tests count the references left held).
//
//vollint:hotpath
func (s *session) enqueue(c *subscriber, b outBuf) bool {
	select {
	case <-c.done:
		b.buf.Release()
		return false
	case c.out <- b:
		select {
		case <-c.done:
			// The writer may have drained its queue already.
			c.releaseQueued()
			return false
		default:
			return true
		}
	default:
		s.hub.cEnqueueDrops.Inc()
		s.cDropsEnqueue.Inc()
		b.buf.Release()
		return false
	}
}

// enqueueMsg serializes m into a pooled buffer of the subscriber's own
// (control messages and FrameComplete markers come through here; cells
// share buffers through the frame table) and enqueues it. fc >= 0 tags
// the buffer as a FrameComplete for Send-span accounting; a non-zero t0
// additionally marks the frame's production start for windowed latency
// accounting.
func (s *session) enqueueMsg(c *subscriber, m wire.Message, fc int32, t0 time.Time) bool {
	b, err := wire.NewBuffer(m)
	if err != nil {
		s.hub.cfg.Metrics.Counter("hub.serialize.errors").Inc()
		return false
	}
	return s.enqueue(c, outBuf{buf: b, fc: fc, t0: t0})
}
