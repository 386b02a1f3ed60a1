package hub

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

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
	// the session; set only via markClosed.
	closed bool
	// emptySince is when the last subscriber left (zero while populated
	// or never joined... sessions are only built on a join, so it starts
	// zero and is armed by the first removeSub that empties the set).
	emptySince time.Time

	ctx    context.Context
	cancel context.CancelFunc
	// done closes when frameLoop exits; the reaper waits on it.
	done chan struct{}

	// cache holds the latest frame's serialized cell buffers so pull
	// requests for the frame being pushed reuse them instead of
	// re-encoding.
	cache frameCache

	// Per-session counters (hub.session.<scene>.*), resolved once at
	// build time so the frame loop never does registry lookups.
	cFrames, cCells, cBytes   *metrics.Counter
	cConnects, cDisconnects   *metrics.Counter
	cDropsEnqueue, cDropsSlow *metrics.Counter
	cPullHits, cPullMisses    *metrics.Counter
	// Per-stage budget-violation counters
	// (hub.session.<scene>.budget_violations.*).
	cViolCull, cViolSerialize, cViolSend *metrics.Counter

	// Sliding-window instruments (hub.session.<scene>.window.*): the
	// SLO engine and /sessions read these for "the last ~10s" instead
	// of lifetime totals. All nil-safe, so the bare sessions tests and
	// benchmarks build skip the whole plane at zero cost.
	wFrameMS    *metrics.Windowed        // frame push→socket latency (ms)
	wFrames     *metrics.WindowedCounter // FrameComplete deliveries
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
	sess *session
	id   uint32
	name string
	// sub is the hub-assigned subscriber id; the tracer's user axis for
	// this connection's spans (wire.Welcome.SessionID keeps carrying it
	// for compatibility with PR 1's single-session protocol).
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
	// degrade is the server-side adaptation level: each level doubles
	// the delivered stride (halves density, saturating at the coarsest
	// prepared rung). It rises when the client's outbound queue backs up
	// (slow network/client) and decays when the queue drains — the
	// transport-level arm of the paper's cross-layer rate adaptation.
	degrade int
	// adaptDwell is the number of frames the degrade level is pinned
	// after a change — the hysteresis dwell that stops the level from
	// flapping when the queue depth hovers around a watermark.
	adaptDwell int
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
// send. Called once on writer exit, after close() severed the connection;
// a buffer racing into the queue after the final drain is merely not
// pooled — the GC still reclaims it.
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

// frameCache shares the current frame's serialized cell buffers between
// the push fan-out and servePull: the push path installs its table after
// each frame, pull requests for that frame reuse the bytes, and
// pull-built buffers join the table so concurrent pull clients share
// them too. The cache holds one reference per buffer; rotating to a
// newer frame (or closing) releases the old table.
type frameCache struct {
	mu    sync.Mutex
	frame uint32
	valid bool
	dead  bool
	bufs  map[bufKey]*wire.Buffer
}

// install replaces the table with a pushed frame's buffers, taking
// ownership of one reference per non-nil slot.
func (fc *frameCache) install(frame uint32, keys []bufKey, slots []*wire.Buffer) {
	m := make(map[bufKey]*wire.Buffer, len(keys))
	for j, k := range keys {
		if slots[j] != nil {
			m[k] = slots[j]
		}
	}
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		for _, b := range m {
			b.Release()
		}
		return
	}
	old := fc.bufs
	fc.frame, fc.valid, fc.bufs = frame, true, m
	fc.mu.Unlock()
	for _, b := range old {
		b.Release()
	}
}

// lookup returns the cached buffer for (frame, key) with a reference
// retained for the caller, or nil on a miss.
func (fc *frameCache) lookup(frame uint32, k bufKey) *wire.Buffer {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if !fc.valid || fc.frame != frame {
		return nil
	}
	b := fc.bufs[k]
	if b != nil {
		b.Retain(1)
	}
	return b
}

// add contributes a pull-built buffer (retaining its own reference),
// rotating the table forward when the request outran the cached frame —
// that is what keeps pull-only sessions, where no push installs tables,
// sharing work across clients.
func (fc *frameCache) add(frame uint32, k bufKey, b *wire.Buffer) {
	var old map[bufKey]*wire.Buffer
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		return
	}
	if !fc.valid || frame > fc.frame {
		old = fc.bufs
		fc.frame, fc.valid, fc.bufs = frame, true, map[bufKey]*wire.Buffer{}
	}
	if fc.frame == frame {
		if _, ok := fc.bufs[k]; !ok {
			b.Retain(1)
			fc.bufs[k] = b
		}
	}
	fc.mu.Unlock()
	for _, o := range old {
		o.Release()
	}
}

// close releases the table and refuses further installs.
func (fc *frameCache) close() {
	fc.mu.Lock()
	old := fc.bufs
	fc.bufs, fc.valid, fc.dead = nil, false, true
	fc.mu.Unlock()
	for _, b := range old {
		b.Release()
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

// drainAll asks every subscriber's writer to flush and close.
func (s *session) drainAll() {
	for _, c := range s.snapshotSubs() {
		c.beginDrain()
	}
}

// closeAll force-closes every subscriber.
func (s *session) closeAll() {
	for _, c := range s.snapshotSubs() {
		c.close()
	}
}

// frameLoop ticks at the session's content rate and pushes each frame's
// cells to every subscriber, with multicast marking for shared cells.
func (s *session) frameLoop() {
	defer s.hub.wg.Done()
	defer close(s.done)
	defer s.cache.close()
	interval := time.Second / time.Duration(s.fps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	frame := 0
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		}
		s.pushFrame(frame)
		frame++
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

// slotMeta carries the planning loop's block resolution to the
// serialization workers: the cell's full layered block and the
// layer-prefix length the slot's rung consumes.
type slotMeta struct {
	blk    *codec.Block
	layers int
}

// pushFrame computes per-subscriber requests for one frame and fans the
// cell bursts out as a bounded producer pipeline. Each (cell, stride) is
// serialized exactly once into an immutable pooled buffer shared by every
// subscriber that needs it — encode once, serialize once, enqueue N
// times — and, unlike the old barriered path, each buffer is enqueued the
// moment its serialization completes: a par worker pool fills the slot
// table while the dispatcher advances per-subscriber cursors over it, so
// the first cell's socket write overlaps the last cell's encode. Cursors
// preserve each subscriber's visibility-ranked cell order, FrameComplete
// stays last, and an unenqueueable subscriber degrades then drops frames
// exactly as before. The multicast bit is stable per frame (it depends
// only on the request overlap), so it lives inside the shared buffer too.
func (s *session) pushFrame(frame int) {
	subs := s.snapshotSubs()
	if len(subs) == 0 {
		return
	}
	cfg := &s.hub.cfg
	frameStart := time.Now()
	fi := frame % s.store.NumFrames()
	occ := s.store.Frame(fi).Occupied

	cull := cfg.Trace.Begin(frame, obs.PipelineUser, obs.StageCull)
	reqs := make([]vivo.Request, len(subs))
	isPull := make([]bool, len(subs))
	counts := map[cell.ID]int{}
	for i, c := range subs {
		c.mu.Lock()
		pose, seen, pull := c.pose, c.seen, c.pull
		c.mu.Unlock()
		if pull {
			isPull[i] = true
			continue // client fetches for itself
		}
		if c.sent == nil {
			c.sent = map[cell.ID]sentCell{}
		}
		if !seen || cfg.Vanilla {
			reqs[i] = vivo.VanillaRequest(occ)
		} else {
			reqs[i] = s.vis.Request(occ, pose)
		}
		for _, cr := range reqs[i].Cells {
			counts[cr.ID]++
		}
	}
	cull.End()
	if b := cfg.Trace.StageBudget(obs.StageCull); b > 0 && time.Since(frameStart) > b {
		s.cViolCull.Inc()
		s.wBudgetViol.Add(1)
	}

	// Plan the fan-out: dedupe (cell, rung, delta-base) triples into a
	// slot index and give every push subscriber an ordered cursor walk
	// over it. Degradation is decided up front (it reads the live queue
	// depth), so the plans are immutable for the rest of the frame. The
	// degrade shift snaps onto the prepared ladder — it saturates at the
	// coarsest rung instead of shifting past it and wrapping the wire's
	// uint8 stride. A layer-aware subscriber that already holds the very
	// block at a shallower prefix gets a delta slot (base > 0): only the
	// enhancement layers, the rest is already client-side.
	serStart := time.Now()
	lad := s.store.Ladder()
	keyIdx := map[bufKey]int{}
	var keys []bufKey
	var meta []slotMeta
	plans := make([][]int, len(subs))
	for i, c := range subs {
		if isPull[i] {
			continue
		}
		degrade := s.adapt(c, len(reqs[i].Cells))
		plan := make([]int, 0, len(reqs[i].Cells))
		for _, cr := range reqs[i].Cells {
			blk := s.store.LayeredBlock(fi, cr.ID)
			if blk == nil {
				continue // occupied but never ingested: a miss
			}
			eff, _ := lad.Degrade(cr.Stride, degrade)
			rung := lad.RungFor(eff)
			k := bufKey{id: cr.ID, stride: lad.StrideAt(rung)}
			m := slotMeta{blk: blk, layers: lad.LayersFor(rung, blk.Layers())}
			if c.layers {
				if prev, ok := c.sent[cr.ID]; ok && prev.blk == blk && prev.layers < m.layers {
					k.base = prev.layers
				}
			}
			idx, ok := keyIdx[k]
			if !ok {
				idx = len(keys)
				keyIdx[k] = idx
				keys = append(keys, k)
				meta = append(meta, m)
			}
			plan = append(plan, idx)
		}
		plans[i] = plan
	}

	// Serialize every slot once, in parallel. Workers publish completed
	// slot indices through the buffered ready channel — the send gives the
	// dispatcher its happens-before on the slot write. A nil slot is a
	// serialize error. Every tier of a cell slices the same encode: the
	// base-layer bytes degraded subscribers receive alias the full block's
	// buffer.
	slots := make([]*wire.Buffer, len(keys))
	ready := make(chan int, len(keys))
	go func() {
		par.ForEach(s.ctx, len(keys), func(j int) error {
			k, m := keys[j], meta[j]
			b, err := wire.NewBuffer(&wire.CellData{
				Frame:      uint32(frame),
				CellID:     uint32(k.id),
				Stride:     tier.WireStride(k.stride),
				Multicast:  counts[k.id] > 1,
				Payload:    layerPayload(m.blk, k.base, m.layers),
				Layers:     uint8(m.layers),
				BaseLayers: uint8(k.base),
			})
			if err != nil {
				cfg.Metrics.Counter("hub.serialize.errors").Inc()
				cfg.Logf("hub: scene %d cell %d serialize: %v", s.scene, k.id, err)
			} else {
				slots[j] = b
			}
			ready <- j
			return nil
		})
		close(ready)
	}()

	// Dispatch: as slots become ready, advance each subscriber's cursor
	// past every ready-in-order cell, enqueueing the shared buffer (one
	// reference per subscriber). A failed enqueue marks the subscriber
	// dead for the rest of the frame — its cursor keeps advancing so the
	// bookkeeping finishes, but nothing more is queued.
	isReady := make([]bool, len(keys))
	cursor := make([]int, len(subs))
	dead := make([]bool, len(subs))
	cells := make([]uint64, len(subs))
	bytes := make([]uint64, len(subs))
	advance := func(i int) {
		c := subs[i]
		plan := plans[i]
		for cursor[i] < len(plan) {
			j := plan[cursor[i]]
			if !isReady[j] {
				return
			}
			cursor[i]++
			b := slots[j]
			if b == nil || dead[i] {
				continue
			}
			n := b.Len()
			b.Retain(1)
			if !s.enqueue(c, outBuf{buf: b, fc: -1}) {
				dead[i] = true
				continue
			}
			cells[i]++
			bytes[i] += uint64(n)
			// Record what the client now holds — only on a successful
			// enqueue, so a dropped buffer leaves the delivery memory
			// describing the client's true state.
			c.sent[keys[j].id] = sentCell{blk: meta[j].blk, layers: meta[j].layers}
		}
	}
	for j := range ready {
		isReady[j] = true
		for i := range subs {
			if !isPull[i] {
				advance(i)
			}
		}
	}
	// ready closed: every slot either completed or was abandoned on
	// shutdown. Force the cursors through whatever remains (abandoned
	// slots read as misses).
	for j := range isReady {
		isReady[j] = true
	}
	for i := range subs {
		if !isPull[i] {
			advance(i)
		}
	}
	if b := cfg.Trace.StageBudget(obs.StageSerialize); b > 0 && time.Since(serStart) > b {
		s.cViolSerialize.Inc()
		s.wBudgetViol.Add(1)
	}

	// FrameComplete, last, per subscriber — but the payload only depends
	// on (frame, cells, bytes), so identical verdicts share one buffer
	// instead of being re-serialized N times.
	type fcKey struct{ cells, bytes uint64 }
	fcBufs := map[fcKey]*wire.Buffer{}
	for i, c := range subs {
		if isPull[i] {
			continue
		}
		k := fcKey{cells[i], bytes[i]}
		fb, cached := fcBufs[k]
		if !cached {
			var err error
			fb, err = wire.NewBuffer(&wire.FrameComplete{
				Frame: uint32(frame), Cells: uint32(cells[i]), Bytes: bytes[i],
			})
			if err != nil {
				cfg.Metrics.Counter("hub.serialize.errors").Inc()
				fb = nil
			}
			fcBufs[k] = fb
		}
		fcOK := false
		if fb != nil {
			fb.Retain(1)
			fcOK = s.enqueue(c, outBuf{buf: fb, fc: int32(frame), t0: frameStart})
		}
		if !fcOK {
			// Never delivered: the writer will not see this frame, so the
			// miss is counted here (delivered-but-late misses are the
			// writer's).
			s.wMisses.Add(1)
		}
		cfg.Trace.Record(frame, int(c.sub), obs.StageSerialize, serStart, time.Since(serStart))
		s.cCells.Add(int64(cells[i]))
		s.cBytes.Add(int64(bytes[i]))
		s.noteSlowClient(c, fcOK)
	}
	for _, fb := range fcBufs {
		if fb != nil {
			fb.Release()
		}
	}

	// Hand the slot table (and its references) to the frame cache so pull
	// requests for this frame reuse the serialized bytes.
	if len(keys) > 0 {
		s.cache.install(uint32(frame), keys, slots)
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
	// Deadline and send budget resolved once: the windowed miss/violation
	// accounting below compares against them per delivered frame.
	deadline   time.Duration
	sendBudget time.Duration
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
	w.c.conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
	t0 := time.Now()
	_, err := nb.WriteTo(w.c.conn)
	if w.sendStart.IsZero() {
		w.sendStart = t0
	}
	w.sendDur += time.Since(t0)
	for i := range w.batch {
		w.scratch[i] = nil
	}
	for _, b := range w.batch {
		if err == nil && b.fc >= 0 {
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
				w.s.wFrames.Add(1)
				if lat > w.deadline {
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
		deadline:   cfg.Trace.Deadline(),
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
			// Coalesce whatever else is already queued into the same
			// vectored write.
		coalesce:
			for len(w.batch) < maxWriteBatch {
				select {
				case nb := <-c.out:
					w.batch = append(w.batch, nb)
				default:
					break coalesce
				}
			}
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
			s.flush(c)
			return
		case <-c.done:
			return
		}
	}
}

// flush empties the queued buffers in vectored batches and signs off with
// a Bye, bounded by the drain budget via per-write deadlines.
func (s *session) flush(c *subscriber) {
	cfg := &s.hub.cfg
	budget := time.Now().Add(cfg.DrainTimeout)
	batch := make([]outBuf, 0, maxWriteBatch)
	scratch := make([][]byte, maxWriteBatch)
	for {
		batch = batch[:0]
	collect:
		for len(batch) < maxWriteBatch {
			select {
			case b := <-c.out:
				batch = append(batch, b)
			default:
				break collect
			}
		}
		if len(batch) == 0 {
			c.conn.SetWriteDeadline(budget)
			if err := wire.WriteMessage(c.conn, &wire.Bye{}); err != nil {
				// The goodbye is best-effort, but a failed one is worth
				// counting: it means the peer vanished mid-drain.
				cfg.Metrics.Counter("transport.drain.bye_failed").Inc()
			}
			return
		}
		if time.Now().After(budget) {
			for _, b := range batch {
				b.buf.Release()
			}
			return
		}
		for i, b := range batch {
			scratch[i] = b.buf.Bytes()
		}
		nb := net.Buffers(scratch[:len(batch)])
		c.conn.SetWriteDeadline(budget)
		_, err := nb.WriteTo(c.conn)
		for _, b := range batch {
			b.buf.Release()
		}
		if err != nil {
			return
		}
	}
}

// noteSlowClient tracks consecutive frames whose FrameComplete could not
// even be enqueued. By then the adaptation ladder has already bottomed
// out, so a peer that still is not draining gets dropped — keeping the
// connection alive would only grow an unbounded backlog of stale frames.
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

// servePull answers a pull-mode request: the client asked for specific
// cells (it runs its own visibility pipeline), the server returns exactly
// those, followed by a FrameComplete marker. Unknown cells are skipped —
// the FrameComplete's Cells count tells the client what it got. When the
// requested frame is the one the push path just serialized (or another
// pull client already built), the shared buffer is reused instead of
// re-encoding; a reused push buffer may carry the multicast accounting
// bit, which pull clients ignore.
func (s *session) servePull(c *subscriber, req *wire.SegmentRequest) {
	cfg := &s.hub.cfg
	pullStart := time.Now()
	defer cfg.Trace.Begin(int(req.Frame), int(c.sub), obs.StageSerialize).End()
	fi := int(req.Frame) % s.store.NumFrames()
	lad := s.store.Ladder()
	var cells, bytes uint64
	for _, ref := range req.Cells {
		// Snap onto the prepared ladder so pull keys coincide with the
		// push fan-out's and both populations share cached buffers.
		rung := lad.RungFor(int(ref.Stride))
		k := bufKey{id: cell.ID(ref.CellID), stride: lad.StrideAt(rung)}
		full := s.store.LayeredBlock(fi, k.id)
		if full == nil {
			continue
		}
		want := lad.LayersFor(rung, full.Layers())
		// A client that declared a held prefix gets only the enhancement
		// delta — but only when its token proves the held bytes are this
		// very block (looped playback revisits frames; a stale prefix
		// silently corrupts the reassembly otherwise).
		if c.layers && ref.HaveLayers > 0 && int(ref.HaveLayers) < want &&
			ref.Token == codec.HashBytes(full.Prefix(int(ref.HaveLayers)))[0] {
			k.base = int(ref.HaveLayers)
		}
		b := s.cache.lookup(req.Frame, k)
		if b != nil {
			s.cPullHits.Inc()
		} else {
			var err error
			b, err = wire.NewBuffer(&wire.CellData{
				Frame:      req.Frame,
				CellID:     ref.CellID,
				Stride:     tier.WireStride(k.stride),
				Payload:    layerPayload(full, k.base, want),
				Layers:     uint8(want),
				BaseLayers: uint8(k.base),
			})
			if err != nil {
				cfg.Metrics.Counter("hub.serialize.errors").Inc()
				continue
			}
			s.cPullMisses.Inc()
			s.cache.add(req.Frame, k, b)
		}
		n := b.Len()
		if !s.enqueue(c, outBuf{buf: b, fc: -1}) {
			break
		}
		cells++
		bytes += uint64(n)
	}
	if !s.enqueueMsg(c, &wire.FrameComplete{Frame: req.Frame, Cells: uint32(cells), Bytes: bytes}, int32(req.Frame), pullStart) {
		s.wMisses.Add(1)
	}
}

// maxDegrade bounds the server-side density reduction (stride ×8).
const maxDegrade = 3

// adaptMinDwellFrames pins the degradation level for this many frames
// after every change. A queue hovering right at a watermark used to flip
// the level every frame — each flip re-keying the fan-out plan and
// spamming Adapt messages — so changes now pay a minimum dwell before
// the next one is considered.
const adaptMinDwellFrames = 8

// adapt inspects the subscriber's outbound queue and moves its
// degradation level. The watermarks are measured in frames of backlog
// (burst = the cell count of the frame about to be pushed): more than
// four frames queued means the network or client cannot keep up, so
// density drops; under half a frame queued restores it. Changes are
// announced with an Adapt message and pinned for adaptMinDwellFrames
// frames of hysteresis.
func (s *session) adapt(c *subscriber, burst int) int {
	if burst < 1 {
		burst = 1
	}
	depth := len(c.out)
	c.mu.Lock()
	old := c.degrade
	if c.adaptDwell > 0 {
		c.adaptDwell--
	} else {
		switch {
		case depth > 4*burst && c.degrade < maxDegrade:
			c.degrade++
		case depth < burst/2 && c.degrade > 0:
			c.degrade--
		}
		if c.degrade != old {
			c.adaptDwell = adaptMinDwellFrames
		}
	}
	level := c.degrade
	c.mu.Unlock()
	if level != old {
		s.enqueueMsg(c, &wire.Adapt{Quality: uint8(level), Reason: 2}, -1, time.Time{}) // quality-down family
		s.hub.cfg.Logf("hub: client %d adaptation level %d -> %d (queue depth %d, burst %d)",
			c.id, old, level, depth, burst)
	}
	return level
}

// enqueue delivers a pre-serialized buffer to the subscriber's writer
// without blocking the frame loop; a persistently full queue (slow
// client) drops frames, which is the right failure mode for real-time
// media. The call consumes exactly one buffer reference regardless of
// outcome — on success it transfers to the writer, on failure it is
// released here — so callers never touch the buffer again after an
// enqueue (the vollint bufown check enforces this).
//
//vollint:hotpath
func (s *session) enqueue(c *subscriber, b outBuf) bool {
	select {
	case <-c.done:
		b.buf.Release()
		return false
	case c.out <- b:
		return true
	default:
		s.hub.cEnqueueDrops.Inc()
		s.cDropsEnqueue.Inc()
		b.buf.Release()
		return false
	}
}

// enqueueMsg serializes m into a pooled buffer (per subscriber — only
// control messages come through here; the fan-out path and servePull
// share buffers) and enqueues it. fc >= 0 tags the buffer as a
// FrameComplete for Send-span accounting; a non-zero t0 additionally
// marks the frame's production start for windowed latency accounting.
func (s *session) enqueueMsg(c *subscriber, m wire.Message, fc int32, t0 time.Time) bool {
	b, err := wire.NewBuffer(m)
	if err != nil {
		s.hub.cfg.Metrics.Counter("hub.serialize.errors").Inc()
		return false
	}
	return s.enqueue(c, outBuf{buf: b, fc: fc, t0: t0})
}
