package hub

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"volcast/internal/abr"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/pointcloud"
	"volcast/internal/tier"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// bareSession builds a hub + session pair without a listener or frame
// loop: tests drive pushFrame by hand and read subscribers' outbound
// queues directly.
func bareSession(t testing.TB, cfg Config) (*Hub, *session) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	cfg.HeartbeatEvery = -1
	cfg.ReapAfter = -1
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.buildSession(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.cancel()
		h.cancel()
	})
	return h, s
}

// bareSub returns a frame-loop-only subscriber at a degrade level. Only a
// pass frame (a positive multiple of the session's fps) moves it.
func bareSub(degrade int, layers bool) *subscriber {
	return &subscriber{
		out:     make(chan outBuf, 4096),
		done:    make(chan struct{}),
		drain:   make(chan struct{}),
		seen:    false,
		layers:  layers,
		degrade: degrade,
		rate:    abr.NewEWMA(0.3),
	}
}

// threeRungFactory builds a seven-frame store over the rungs {1, 2, 4}.
func threeRungFactory(uint32, codec.BlockCache) (*vivo.Store, error) {
	video := pointcloud.Stage{Frames: 7, Points: 6000, Seed: 7}.Video()
	return vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 4})
}

// drainMsgs empties a subscriber's queue, parsing and releasing every
// buffered message.
func drainMsgs(t *testing.T, c *subscriber) []wire.Message {
	t.Helper()
	var out []wire.Message
	for {
		select {
		case b := <-c.out:
			m, err := wire.ReadMessage(bytes.NewReader(b.buf.Bytes()))
			b.buf.Release()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		default:
			return out
		}
	}
}

func cellDatas(msgs []wire.Message) []*wire.CellData {
	var out []*wire.CellData
	for _, m := range msgs {
		if cd, ok := m.(*wire.CellData); ok {
			out = append(out, cd)
		}
	}
	return out
}

// TestDegradeSaturatesAtCoarsestRung is the regression test for the
// stride-wrap bug: with a prepared ladder of {1, 40} and a degraded
// subscriber requesting stride 40, the old plan computed 40<<3 = 320 and
// truncated it into the wire's uint8 as 64 — a stride the store never
// prepared. The degrade shift must saturate at the coarsest rung: the
// wire carries stride 40 and the payload is that rung's bytes.
func TestDegradeSaturatesAtCoarsestRung(t *testing.T) {
	factory := func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
		video := pointcloud.Stage{Frames: 2, Points: 1500, Seed: 7}.Video()
		return vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 40})
	}
	_, s := bareSession(t, Config{NewStore: factory})

	// Every visible cell at stride 40: a single LOD level covering all
	// distances, so the visibility pipeline reproduces the request shape
	// that used to trigger the wrap.
	s.vis = vivo.New(s.store.Grid(), vivo.Params{
		Frustum:   geom.DefaultFrustumParams(),
		Occlusion: false,
		LOD:       []vivo.LODLevel{{MaxDist: math.Inf(1), Stride: 40}},
	})
	occ := s.store.Frame(0).Occupied
	var cen geom.Vec3
	n := 0
	occ.ForEach(func(id cell.ID) {
		cen = cen.Add(s.store.Grid().Center(id))
		n++
	})
	cen = cen.Scale(1 / float64(n))
	pose := geom.Pose{
		Pos: cen.Add(geom.V(0, 0, 3)),
		Rot: geom.LookRotation(geom.V(0, 0, -1), geom.V(0, 1, 0)),
	}
	if got := len(s.vis.Request(occ, pose).Cells); got == 0 {
		t.Fatal("test pose sees no cells — nothing to push")
	}

	c := bareSub(tier.MaxDegrade, false) // the old code computed 40<<3 = 320
	c.pose, c.seen = pose, true
	if !s.addSub(c) {
		t.Fatal("addSub")
	}
	s.pushFrame(0)

	cds := cellDatas(drainMsgs(t, c))
	if len(cds) == 0 {
		t.Fatal("no CellData delivered")
	}
	for _, cd := range cds {
		if cd.Stride != 40 {
			t.Fatalf("cell %d delivered at stride %d, want 40 (saturated, not wrapped)", cd.CellID, cd.Stride)
		}
		blk := s.store.Block(0, cell.ID(cd.CellID), 40)
		if blk == nil {
			t.Fatalf("cell %d: no coarsest-rung block in store", cd.CellID)
		}
		if !bytes.Equal(cd.Payload, blk.Data) {
			t.Errorf("cell %d: payload is not the coarsest rung's layer prefix", cd.CellID)
		}
		if cd.Layers != 1 {
			t.Errorf("cell %d: Layers = %d, want 1 (base layer only)", cd.CellID, cd.Layers)
		}
	}
}

// TestModeledBytesMatchServedBytes pins the simulator's byte model to what
// the hub puts on the wire, the first of the "identical decisions on
// identical inputs" the two sides owe each other: for one pose and every
// degrade level, the bytes internal/stream prices a user's request at
// (cull → Ladder.Degrade → SizeOracle) are the CellData payload bytes a
// subscriber pinned at that level is sent (cull → Ladder.Degrade → resolve
// → Prefix) — same cells, same strides, same total.
func TestModeledBytesMatchServedBytes(t *testing.T) {
	factory := func(uint32, codec.BlockCache) (*vivo.Store, error) {
		video := pointcloud.Stage{Frames: 2, Points: 6000, Seed: 7}.Video()
		return vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 3, 4})
	}
	_, s := bareSession(t, Config{NewStore: factory})
	store, lad := s.store, s.store.Ladder()
	occ := store.Frame(0).Occupied

	// From 1.8 m out, the figure spans the first two LOD bands, so the
	// culled request mixes strides.
	var cen geom.Vec3
	occ.ForEach(func(id cell.ID) { cen = cen.Add(store.Grid().Center(id)) })
	cen = cen.Scale(1 / float64(occ.Count()))
	pose := geom.Pose{
		Pos: cen.Add(geom.V(0, 0, 1.8)),
		Rot: geom.LookRotation(geom.V(0, 0, -1), geom.V(0, 1, 0)),
	}
	vis := vivo.New(store.Grid(), vivo.DefaultParams()) // as internal/stream builds it
	culled := vis.Request(occ, pose)
	strides := map[int]bool{}
	for _, cr := range culled.Cells {
		strides[cr.Stride] = true
	}
	if len(strides) < 2 {
		t.Fatalf("test pose culls to strides %v, want a mix", strides)
	}

	size := store.SizeOracle(0)
	for level := 0; level <= tier.MaxDegrade; level++ {
		modeled := vivo.Request{Cells: append([]vivo.CellRequest(nil), culled.Cells...)}
		for i := range modeled.Cells {
			modeled.Cells[i].Stride, _ = lad.Degrade(modeled.Cells[i].Stride, level)
		}

		c := bareSub(level, false)
		c.pose, c.seen = pose, true
		if !s.addSub(c) {
			t.Fatal("addSub")
		}
		s.pushFrame(0)
		s.removeSub(c)
		served := cellDatas(drainMsgs(t, c))

		if len(served) != len(modeled.Cells) {
			t.Fatalf("level %d: %d cells served, %d modeled", level, len(served), len(modeled.Cells))
		}
		total := 0
		for i, cd := range served {
			cr := modeled.Cells[i]
			if cell.ID(cd.CellID) != cr.ID || int(cd.Stride) != lad.StrideAt(lad.RungFor(cr.Stride)) {
				t.Errorf("level %d cell %d: served (cell %d, stride %d), modeled (cell %d, stride %d)",
					level, i, cd.CellID, cd.Stride, cr.ID, cr.Stride)
			}
			if len(cd.Payload) != size(cr.ID, cr.Stride) {
				t.Errorf("level %d cell %d: %d payload bytes served, %d modeled", level, cr.ID, len(cd.Payload), size(cr.ID, cr.Stride))
			}
			total += len(cd.Payload)
		}
		if want := modeled.Bytes(size); total != want || total == 0 {
			t.Errorf("level %d: %d bytes served, %d modeled", level, total, want)
		}
	}
}

// TestUpgradeShipsOnlyDeltaLayers is the layered format's wire-level
// claim: a layer-aware subscriber upgrading an unchanged cell from a
// coarse rung to a finer one receives only the enhancement segment
// (BaseLayers > 0, payload = Block.Delta), while a legacy subscriber
// making the same upgrade gets the full finer prefix re-sent. A store
// loaded from a container must serve exactly what the built one does —
// the same number of deltas, the same bytes.
func TestUpgradeShipsOnlyDeltaLayers(t *testing.T) {
	built := testFactory(nil)
	reloaded := func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
		st, err := built(scene, blocks)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := vivo.WriteStore(&buf, st); err != nil {
			return nil, err
		}
		return vivo.ReadStore(&buf)
	}
	type shipped struct{ deltas, deltaBytes int }
	var got []shipped
	for _, tc := range []struct {
		name    string
		factory func(uint32, codec.BlockCache) (*vivo.Store, error)
	}{{"built", built}, {"reloaded", reloaded}} {
		t.Run(tc.name, func(t *testing.T) {
			deltas, deltaBytes := upgradeShipsOnlyDeltaLayers(t, tc.factory)
			got = append(got, shipped{deltas, deltaBytes})
		})
	}
	if len(got) == 2 && got[0] != got[1] {
		t.Errorf("built store shipped %+v, reloaded store %+v", got[0], got[1])
	}
}

// upgradeShipsOnlyDeltaLayers runs the degrade-then-upgrade scenario
// over one store and returns how many deltas the layer-aware subscriber
// was sent and their total payload bytes.
func upgradeShipsOnlyDeltaLayers(t *testing.T, factory func(uint32, codec.BlockCache) (*vivo.Store, error)) (deltas, deltaBytes int) {
	_, s := bareSession(t, Config{NewStore: factory, Vanilla: true})

	a := bareSub(1, true)  // layer-aware
	b := bareSub(1, false) // legacy
	if !s.addSub(a) || !s.addSub(b) {
		t.Fatal("addSub")
	}

	// Frame 0 at degrade 1: both receive the base layer (stride 2).
	s.pushFrame(0)
	for name, c := range map[string]*subscriber{"layered": a, "legacy": b} {
		cds := cellDatas(drainMsgs(t, c))
		if len(cds) == 0 {
			t.Fatalf("%s subscriber: no CellData in degraded frame", name)
		}
		for _, cd := range cds {
			if cd.Stride != 2 || cd.BaseLayers != 0 {
				t.Fatalf("%s subscriber degraded frame: stride %d base %d, want stride 2 base 0",
					name, cd.Stride, cd.BaseLayers)
			}
		}
	}

	// Same frame content again, now at full quality: the upgrade.
	for _, c := range []*subscriber{a, b} {
		c.mu.Lock()
		c.degrade = 0
		c.mu.Unlock()
	}
	s.pushFrame(0)

	var fullBytes int
	acds := cellDatas(drainMsgs(t, a))
	if len(acds) == 0 {
		t.Fatal("layered subscriber: no CellData in upgrade frame")
	}
	for _, cd := range acds {
		blk := s.store.LayeredBlock(0, cell.ID(cd.CellID))
		if cd.BaseLayers != 1 || cd.Layers != uint8(blk.Layers()) {
			t.Fatalf("cell %d upgrade: base %d layers %d, want base 1 layers %d",
				cd.CellID, cd.BaseLayers, cd.Layers, blk.Layers())
		}
		if !bytes.Equal(cd.Payload, blk.Delta(1, blk.Layers())) {
			t.Errorf("cell %d: upgrade payload is not the enhancement delta", cd.CellID)
		}
		deltas++
		deltaBytes += len(cd.Payload)
		fullBytes += len(blk.Data)
	}
	if deltaBytes >= fullBytes {
		t.Errorf("delta upgrade shipped %d bytes, full re-send is %d — no savings", deltaBytes, fullBytes)
	}

	bcds := cellDatas(drainMsgs(t, b))
	if len(bcds) == 0 {
		t.Fatal("legacy subscriber: no CellData in upgrade frame")
	}
	for _, cd := range bcds {
		blk := s.store.LayeredBlock(0, cell.ID(cd.CellID))
		if cd.BaseLayers != 0 {
			t.Fatalf("legacy subscriber got a delta (base %d) it cannot apply", cd.BaseLayers)
		}
		if !bytes.Equal(cd.Payload, blk.Data) {
			t.Errorf("cell %d: legacy upgrade payload is not the full block", cd.CellID)
		}
	}
	return deltas, deltaBytes
}

// TestAdaptStepsOnlyOnPassFrames pins the cadence that replaced the
// watermark rule's dwell: with pushFrame driven by hand, a subscriber
// whose writer delivers nothing falls one rung per pass to the coarsest,
// then, once its writer delivers every frame fast, climbs back one rung
// per pass. A level moves only on pass frames, by one step, and every move
// is announced by an Adapt carrying its direction as the abr.Action.
func TestAdaptStepsOnlyOnPassFrames(t *testing.T) {
	_, s := bareSession(t, Config{NewStore: testFactory(nil), Vanilla: true})
	c := bareSub(0, false)
	if !s.addSub(c) {
		t.Fatal("addSub")
	}
	var path []int
	for frame := 0; frame <= 8*s.fps; frame++ {
		recovering := frame > 4*s.fps
		old := c.degrade
		s.pushFrame(frame)
		var adapts []*wire.Adapt
		for _, m := range drainMsgs(t, c) {
			if fc, ok := m.(*wire.FrameComplete); ok && recovering {
				// The writer: every frame on the socket at once.
				c.fcsWritten.Add(1)
				c.wrote.Add(int64(fc.Bytes))
				c.busyNs.Add(1)
			}
			if a, ok := m.(*wire.Adapt); ok {
				adapts = append(adapts, a)
			}
		}
		if c.degrade == old {
			if len(adapts) != 0 {
				t.Fatalf("frame %d: level held at %d but %d Adapt sent", frame, old, len(adapts))
			}
			continue
		}
		if frame%s.fps != 0 || (c.degrade-old)*(c.degrade-old) != 1 {
			t.Fatalf("frame %d: level moved %d -> %d, want one step on a multiple of %d", frame, old, c.degrade, s.fps)
		}
		reason := uint8(abr.ActionQualityDown)
		if c.degrade < old {
			reason = uint8(abr.ActionQualityUp)
		}
		if len(adapts) != 1 || int(adapts[0].Quality) != c.degrade || adapts[0].Reason != reason {
			t.Fatalf("frame %d: level %d -> %d announced by %+v, want one Adapt{%d, %d}", frame, old, c.degrade, adapts, c.degrade, reason)
		}
		path = append(path, c.degrade)
	}
	if want := []int{1, 2, 3, 2, 1, 0}; !reflect.DeepEqual(path, want) {
		t.Errorf("levels moved through %v, want %v", path, want)
	}
}

// TestFreeLinkHoldsFullDensity: a subscriber whose writer never waits
// stays at full density when its culled demand jumps: a viewer turned
// away from the figure for three passes turns to face it. The rate a free link reads is capped against the whole
// frame, so a light pass frame cannot leave the estimate under a heavy
// one's demand.
func TestFreeLinkHoldsFullDensity(t *testing.T) {
	_, s := bareSession(t, Config{NewStore: threeRungFactory})
	occ := s.store.Frame(0).Occupied
	var cen geom.Vec3
	occ.ForEach(func(id cell.ID) { cen = cen.Add(s.store.Grid().Center(id)) })
	cen = cen.Scale(1 / float64(occ.Count()))
	pos, a := cen.Add(geom.V(0, 0, 1.2)), 50*math.Pi/180
	facing := geom.Pose{Pos: pos, Rot: geom.LookRotation(geom.V(0, 0, -1), geom.V(0, 1, 0))}
	aside := geom.Pose{Pos: pos, Rot: geom.LookRotation(geom.V(math.Sin(a), 0, -math.Cos(a)), geom.V(0, 1, 0))}
	size := s.store.SizeOracle(0)
	if f, n := s.vis.Request(occ, facing).Bytes(size), s.vis.Request(occ, aside).Bytes(size); f < 4*n || n == 0 {
		t.Fatalf("facing request %d B, aside %d B: want the facing one over four times the other", f, n)
	}
	c := bareSub(0, false)
	c.seen = true
	if !s.addSub(c) {
		t.Fatal("addSub")
	}
	for frame := 0; frame <= 8*s.fps; frame++ {
		c.pose = aside
		if frame >= 4*s.fps {
			c.pose = facing
		}
		s.pushFrame(frame)
		for _, m := range drainMsgs(t, c) {
			switch m := m.(type) {
			case *wire.FrameComplete:
				c.fcsWritten.Add(1)
				c.wrote.Add(int64(m.Bytes))
				c.busyNs.Add(1)
			case *wire.Adapt:
				t.Fatalf("frame %d: free link moved to level %d", frame, m.Quality)
			}
		}
	}
}

// TestPullMatchesPush pins the one delivery path from both ends: a pull
// request and a push subscriber owed the same (cell, rung) receive the
// same CellData — as a full prefix, and as an enhancement delta once the
// push side's delivery memory and the pull side's token each prove the
// held base layer — differing only in the multicast bit, which a pull
// request (one client's own choice) never carries. A token that does not
// match the held bytes gets the full prefix, never a delta.
func TestPullMatchesPush(t *testing.T) {
	_, s := bareSession(t, Config{NewStore: testFactory(nil), Vanilla: true})
	push, other := bareSub(1, true), bareSub(1, true)
	if !s.addSub(push) || !s.addSub(other) {
		t.Fatal("addSub")
	}
	pull := bareSub(0, true)
	pull.pull = true

	// request asks for every cell the push side was just sent, at stride,
	// declaring `have` held layers proven by token(cell).
	request := func(pushed []*wire.CellData, stride, have uint8, token func(cell.ID) uint64) []*wire.CellData {
		req := &wire.SegmentRequest{Frame: 0}
		for _, cd := range pushed {
			ref := wire.CellRef{CellID: cd.CellID, Stride: stride, HaveLayers: have}
			if have > 0 {
				ref.Token = token(cell.ID(cd.CellID))
			}
			req.Cells = append(req.Cells, ref)
		}
		s.servePull(pull, req)
		return cellDatas(drainMsgs(t, pull))
	}
	same := func(what string, pushed, pulled []*wire.CellData, wantBase uint8) {
		t.Helper()
		if len(pushed) == 0 || len(pushed) != len(pulled) {
			t.Fatalf("%s: push delivered %d cells, pull %d", what, len(pushed), len(pulled))
		}
		for i, cd := range pushed {
			if !cd.Multicast || pulled[i].Multicast {
				t.Errorf("%s cell %d: multicast push=%v pull=%v, want true/false", what, cd.CellID, cd.Multicast, pulled[i].Multicast)
			}
			if cd.BaseLayers != wantBase {
				t.Errorf("%s cell %d: push BaseLayers = %d, want %d", what, cd.CellID, cd.BaseLayers, wantBase)
			}
			want := *cd
			want.Multicast = false
			if !reflect.DeepEqual(&want, pulled[i]) {
				t.Errorf("%s cell %d: pull CellData differs from push beyond the multicast bit", what, cd.CellID)
			}
		}
	}
	heldToken := func(id cell.ID) uint64 {
		return codec.HashBytes(s.store.LayeredBlock(0, id).Prefix(1))[0]
	}

	// Coarse rung, nothing held: the full base-layer prefix.
	s.pushFrame(0)
	drainMsgs(t, other)
	pushed := cellDatas(drainMsgs(t, push))
	same("full", pushed, request(pushed, 2, 0, nil), 0)

	// Same content at the fine rung, base layer held: the delta.
	for _, c := range []*subscriber{push, other} {
		c.degrade = 0
	}
	s.pushFrame(0)
	drainMsgs(t, other)
	pushed = cellDatas(drainMsgs(t, push))
	same("delta", pushed, request(pushed, 1, 1, heldToken), 1)

	// A token for bytes the client does not hold must not yield a delta.
	for _, cd := range request(pushed, 1, 1, func(id cell.ID) uint64 { return heldToken(id) + 1 }) {
		if cd.BaseLayers != 0 {
			t.Errorf("cell %d: stale token answered with a delta (base %d)", cd.CellID, cd.BaseLayers)
		}
	}
}
