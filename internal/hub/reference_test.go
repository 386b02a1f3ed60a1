package hub

// pushFrame as it stood before the delivery path was flattened into
// resolve/deliver (DESIGN.md §11), kept verbatim apart from the ref
// prefix and its last step: the slot table went to the frame cache, which
// no longer exists, so the reference releases it instead. The producer
// pipeline is all here — a par worker pool filling a slot table behind a
// ready channel, per-subscriber cursors advancing over it, FrameComplete
// buffers shared by verdict. TestPushFrameMatchesReference pins the flat
// path's per-subscriber bytes and delivery memory to it. The level the
// reference reads is the one the test pins; the decision that moves it is
// TestAdaptPassMatchesSim's.

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"volcast/internal/abr"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/tier"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// slotMeta carries the planning loop's block resolution to the
// serialization workers: the cell's full layered block and the
// layer-prefix length the slot's rung consumes.
type slotMeta struct {
	blk    *codec.Block
	layers int
}

func (s *session) refPushFrame(frame int) {
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
		degrade := c.degrade
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

	// The parent handed the slot table (and its references) to the frame
	// cache here.
	for _, b := range slots {
		if b != nil {
			b.Release()
		}
	}
	s.cFrames.Inc()
}

// drainRaw empties a subscriber's queue, returning a copy of every
// buffered message's framed bytes in order.
func drainRaw(c *subscriber) [][]byte {
	var out [][]byte
	for {
		select {
		case b := <-c.out:
			out = append(out, bytes.Clone(b.buf.Bytes()))
			b.buf.Release()
		default:
			return out
		}
	}
}

// TestPushFrameMatchesReference is the flattening's differential test:
// twin subscriber sets on one session — degrade 0–3 moving on a schedule
// so cells upgrade and downgrade, layer-aware and legacy, posed and
// never-seen, one pull subscriber — are pushed five loops' worth of the
// store through pushFrame and through the parent's pipeline at worker
// widths 1 and 8; no pass frame falls inside the run. Every subscriber's queued bytes, in order and FrameComplete
// last, and its delivery memory must match its twin's.
func TestPushFrameMatchesReference(t *testing.T) {
	old := par.Workers()
	t.Cleanup(func() { par.SetWorkers(old) })

	_, s := bareSession(t, Config{NewStore: testFactory(nil)})
	occ := s.store.Frame(0).Occupied
	var cen geom.Vec3
	n := 0
	occ.ForEach(func(id cell.ID) {
		cen = cen.Add(s.store.Grid().Center(id))
		n++
	})
	cen = cen.Scale(1 / float64(n))
	look := geom.LookRotation(geom.V(0, 0, -1), geom.V(0, 1, 0))
	front := geom.Pose{Pos: cen.Add(geom.V(0, 0, 3)), Rot: look}
	side := geom.Pose{Pos: cen.Add(geom.V(0.6, 0.2, 2)), Rot: look}
	for _, p := range []geom.Pose{front, side} {
		if len(s.vis.Request(occ, p).Cells) == 0 {
			t.Fatal("test pose sees no cells — nothing to push")
		}
	}

	type spec struct {
		degrade int
		layers  bool
		pose    *geom.Pose // nil = never seen: a vanilla request
		pull    bool
	}
	specs := []spec{
		{degrade: 0, layers: true, pose: &front},
		{degrade: 1, layers: true, pose: &side},
		{degrade: 2, layers: true},
		{degrade: 3, layers: true, pose: &front},
		{degrade: 0, layers: false, pose: &side},
		{degrade: 1, layers: false},
		{degrade: 3, layers: false, pose: &front},
		{degrade: 3, layers: true, pose: &side},
		{pull: true},
	}
	build := func() []*subscriber {
		subs := make([]*subscriber, len(specs))
		for i, sp := range specs {
			c := bareSub(sp.degrade, sp.layers)
			c.sub, c.pull = uint32(i+1), sp.pull
			if sp.pose != nil {
				c.pose, c.seen = *sp.pose, true
			}
			subs[i] = c
		}
		return subs
	}
	install := func(subs []*subscriber) {
		s.mu.Lock()
		s.subs = map[*subscriber]struct{}{}
		for _, c := range subs {
			s.subs[c] = struct{}{}
		}
		s.mu.Unlock()
	}

	for _, width := range []int{1, 8} {
		par.SetWorkers(width)
		got, want := build(), build()
		var deltas, multicast int
		// Two loops of the store in playback order, then every store
		// frame three times in a row: each frame's content differs, so
		// only a back-to-back revisit re-requests a held block — at a
		// finer rung (a delta, for the layer-aware) or a coarser one.
		nf := s.store.NumFrames()
		var frames []int
		for f := 0; f < 2*nf; f++ {
			frames = append(frames, f)
		}
		for fi := 0; fi < nf; fi++ {
			frames = append(frames, 2*nf+fi, 3*nf+fi, 4*nf+fi)
		}
		if frames[len(frames)-1] >= s.fps {
			t.Fatalf("frame %d is a pass frame at %d fps", frames[len(frames)-1], s.fps)
		}
		for step, frame := range frames {
			// Move the pinned levels every step.
			for i, sp := range specs {
				if sp.pull {
					continue
				}
				level := (sp.degrade + step) % (tier.MaxDegrade + 1)
				got[i].degrade, want[i].degrade = level, level
			}
			install(got)
			s.pushFrame(frame)
			install(want)
			s.refPushFrame(frame)

			for i := range specs {
				g, w := drainRaw(got[i]), drainRaw(want[i])
				if len(g) != len(w) {
					t.Fatalf("width %d frame %d sub %d: %d messages queued, reference queued %d",
						width, frame, i, len(g), len(w))
				}
				if specs[i].pull {
					if len(g) != 0 {
						t.Fatalf("width %d frame %d: pull subscriber was pushed %d messages", width, frame, len(g))
					}
					continue
				}
				for j := range g {
					if !bytes.Equal(g[j], w[j]) {
						t.Fatalf("width %d frame %d sub %d: message %d of %d diverges from the reference",
							width, frame, i, j, len(g))
					}
					m, err := wire.ReadMessage(bytes.NewReader(g[j]))
					if err != nil {
						t.Fatal(err)
					}
					if m, ok := m.(*wire.CellData); ok {
						if m.BaseLayers > 0 {
							deltas++
						}
						if m.Multicast {
							multicast++
						}
					}
				}
				if last := g[len(g)-1]; wire.MsgType(last[4]) != wire.TypeFrameComplete {
					t.Fatalf("width %d frame %d sub %d: last message is type %d, want FrameComplete",
						width, frame, i, last[4])
				}
				if !reflect.DeepEqual(got[i].sent, want[i].sent) {
					t.Fatalf("width %d frame %d sub %d: delivery memory diverges from the reference", width, frame, i)
				}
			}
		}
		// The scenario must have exercised what it claims to.
		if deltas == 0 || multicast == 0 {
			t.Errorf("width %d: %d delta cells, %d multicast cells — each must occur",
				width, deltas, multicast)
		}
	}
}

// TestAdaptPassMatchesSim holds the hub's pass to the simulator's call,
// one pass frame of pushFrame at a time, over seeded inputs: one to four
// push subscribers whose requests are culled from a real store at random
// poses (now and then never-seen: a vanilla request), every level from 0
// to tier.MaxDegrade, and writer counters whose rate lands from a third of
// the level's demand to three times it, the ceiling included — on a fresh
// estimate or on top of an earlier one — and whose played share spans the panic and safe buffer
// fractions, clamp included. Each subscriber must end at the level
// abr.Controller.Adapt gives sim-shaped users at the session's fps, be
// sent the (cell, stride) wants Adapt returns for it, in order, and hear
// of a move by one Adapt. A subscriber owed no frame since the last pass
// is left out of the call and keeps its level.
func TestAdaptPassMatchesSim(t *testing.T) {
	_, s := bareSession(t, Config{NewStore: threeRungFactory, Logf: func(string, ...any) {}})
	store, lad := s.store, s.store.Ladder()
	occ0 := store.Frame(0).Occupied
	var cen geom.Vec3
	occ0.ForEach(func(id cell.ID) { cen = cen.Add(store.Grid().Center(id)) })
	cen = cen.Scale(1 / float64(occ0.Count()))
	rng := rand.New(rand.NewSource(27))
	ctrl := abr.NewController(abr.DefaultConfig())
	var downs, ups, holds, skipped, capped int
	for trial := 0; trial < 1000; trial++ {
		s.fps = []int{24, 30, 60, 240}[rng.Intn(4)]
		frame := s.fps * (1 + rng.Intn(7))
		fi := frame % store.NumFrames()
		occ, size := store.Frame(fi).Occupied, store.SizeOracle(fi)
		subs := make([]*subscriber, 1+rng.Intn(4))
		var users []abr.User
		var in []int // users[k] is subs[in[k]]
		for u := range subs {
			c := bareSub(rng.Intn(tier.MaxDegrade+1), rng.Intn(2) == 0)
			c.sub = uint32(u + 1)
			culled := vivo.VanillaRequest(occ)
			if rng.Intn(8) != 0 {
				a, r := 2*math.Pi*rng.Float64(), 1.2+3*rng.Float64()
				pos := cen.Add(geom.V(r*math.Cos(a), 0.4*rng.NormFloat64(), r*math.Sin(a)))
				c.pose = geom.Pose{Pos: pos, Rot: geom.LookRotation(cen.Sub(pos), geom.V(0, 1, 0))}
				c.seen = true
				culled = s.vis.Request(occ, c.pose)
			}
			subs[u] = c
			if rng.Intn(10) == 0 {
				continue // owed nothing since the last pass
			}
			planned := abr.AtLevel(lad, culled, c.degrade).Bytes(size)
			demand := codec.BitrateMbps(float64(planned), s.fps)
			est := abr.NewEWMA(0.3)
			if rng.Intn(2) == 0 {
				prior := abr.Sample{Mbps: demand * math.Exp2(3.2*rng.Float64()-1.6)}
				c.rate.Observe(prior)
				est.Observe(prior)
			}
			busy := 1e6 + rng.Int63n(1e9)
			bytes := int64(demand * math.Exp2(3.2*rng.Float64()-1.6) * float64(busy) / 8e3)
			c.wrote.Store(bytes)
			c.busyNs.Store(busy)
			whole := codec.BitrateMbps(float64(vivo.VanillaRequest(occ).Bytes(size)), s.fps)
			sample := float64(bytes*8) / (float64(busy) / 1e9) / 1e6
			if sample > rateCeiling*whole {
				capped++
			}
			est.Observe(abr.Sample{Mbps: min(sample, rateCeiling*whole)})
			c.owed = 1 + rng.Intn(s.fps)
			fcs := rng.Intn(c.owed + 3)
			c.fcsWritten.Store(int64(fcs))
			users = append(users, abr.User{
				Culled: culled, Level: c.degrade, PredictedMbps: est.Predict(),
				PlannedBytes: planned, Played: min(1, float64(fcs)/float64(c.owed)),
			})
			in = append(in, u)
		}
		levels, _, reqs := ctrl.Adapt(store, fi, s.fps, users)
		olds := make([]int, len(subs))
		wantLv := make([]int, len(subs))
		wantReq := make([]vivo.Request, len(subs))
		for u, c := range subs {
			olds[u], wantLv[u] = c.degrade, c.degrade
			if c.seen {
				wantReq[u] = s.vis.Request(occ, c.pose)
			} else {
				wantReq[u] = vivo.VanillaRequest(occ)
			}
			wantReq[u] = abr.AtLevel(lad, wantReq[u], c.degrade)
		}
		for k, u := range in {
			wantLv[u], wantReq[u] = levels[k], reqs[k]
		}

		s.mu.Lock()
		s.subs = map[*subscriber]struct{}{}
		for _, c := range subs {
			s.subs[c] = struct{}{}
		}
		s.mu.Unlock()
		s.pushFrame(frame)

		for u, c := range subs {
			msgs := drainMsgs(t, c)
			if c.degrade != wantLv[u] {
				t.Fatalf("trial %d sub %d: level %d -> %d, sim's Adapt says %d", trial, u, olds[u], c.degrade, wantLv[u])
			}
			if moved := wantLv[u] != olds[u]; moved {
				a, ok := msgs[0].(*wire.Adapt)
				if !ok || int(a.Quality) != wantLv[u] {
					t.Fatalf("trial %d sub %d: moved to %d, first message %#v", trial, u, wantLv[u], msgs[0])
				}
				msgs = msgs[1:]
			}
			cds := cellDatas(msgs)
			if len(cds) != len(wantReq[u].Cells) {
				t.Fatalf("trial %d sub %d: %d cells sent, sim's wants are %d", trial, u, len(cds), len(wantReq[u].Cells))
			}
			for i, cr := range wantReq[u].Cells {
				if cell.ID(cds[i].CellID) != cr.ID || int(cds[i].Stride) != lad.StrideAt(lad.RungFor(cr.Stride)) {
					t.Fatalf("trial %d sub %d cell %d: sent (%d, %d), sim wants (%d, %d)",
						trial, u, i, cds[i].CellID, cds[i].Stride, cr.ID, cr.Stride)
				}
			}
			switch {
			case !slices.Contains(in, u):
				skipped++
			case wantLv[u] > olds[u]:
				downs++
			case wantLv[u] < olds[u]:
				ups++
			default:
				holds++
			}
		}
	}
	if downs < 100 || ups < 100 || holds < 100 || skipped < 50 || capped < 50 {
		t.Errorf("draws too one-sided: %d down, %d up, %d held, %d left out, %d samples capped",
			downs, ups, holds, skipped, capped)
	}
}
