package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sort"
	"time"

	"volcast/internal/abr"
	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/core"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/phy"
	"volcast/internal/pointcloud"
	"volcast/internal/predict"
	"volcast/internal/tier"
	"volcast/internal/trace"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// The layer ladder walks a workload's own content and poses through the
// program's public calls in frame-path order, on one goroutine:
//
//	generate → encode → cache → cull → plan → serialize → send → read → decode
//
// Stage names are the obs stage names (plus "read", which obs has no name
// for yet). Every workload's ladder runs every stage, so every per-layer
// metric exists on every workload, measured on that workload's content;
// stageWeights says which stages a workload's own frame path contains.

// ladderUsers is how many viewers the cull and plan stages serve.
const ladderUsers = simUsers

// sendBatch bounds one vectored write. The ladder writes and then reads
// on the same goroutine, so a batch must fit the loopback socket buffers.
const sendBatch = 48 << 10

// ladder is the world one ladder pass walks; samples collect per-call
// durations (ns) by metric key.
type ladder struct {
	c      content
	seed   int64
	frames int
	sim    bool

	views   []*trace.Trace
	a, b    net.Conn // bench-owned loopback pair: a writes, b reads
	netw    *core.Network
	planner *core.Planner

	samples  map[string][]float64
	problems []string
	// last pass's leftovers, for the micro-measurements and probes
	video        *pointcloud.Video
	store        *vivo.Store
	reqs         []vivo.Request
	poses        []geom.Pose
	payload      []byte // median-sized cell payload
	points       int    // decoded points, all frames
	bitsPerPoint float64
}

func newLadder(c content, seed int64, frames int, sim bool) (*ladder, error) {
	l := &ladder{c: c, seed: seed, frames: frames, sim: sim, samples: map[string][]float64{}}
	study := trace.GenerateStudy(frames+90, cohortSeed)
	for u := 0; u < ladderUsers; u++ {
		l.views = append(l.views, viewer(study, u, ladderUsers, frames/30+2, stageTargets(c.performers)))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	if l.a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, err
	}
	if l.b, err = ln.Accept(); err != nil {
		l.a.Close()
		return nil, err
	}
	if l.netw, err = core.NewAD(); err != nil {
		l.close()
		return nil, err
	}
	l.planner = core.NewPlanner(l.netw)
	return l, nil
}

func (l *ladder) close() {
	l.a.Close()
	l.b.Close()
}

func (l *ladder) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// presetBlocks is a codec.BlockCache that runs the real tier's key lookup
// and insert but hands it an already encoded block on a miss, so the miss
// path's own cost (content hash + insert) is timed without the encode.
type presetBlocks struct {
	tier codec.BlockCache
	next *codec.Block
}

func (p *presetBlocks) Block(key codec.CacheKey, _ func() *codec.Block) *codec.Block {
	return p.tier.Block(key, func() *codec.Block { return p.next })
}

// plannedCell is one cell of viewer 0's frame after the plan stage.
type plannedCell struct {
	id      cell.ID
	stride  int
	layers  int
	payload []byte
}

// walk runs one pass of the ladder. With keep set it also collects the
// per-call samples and runs the round-trip checks; the span recorder is
// independent of keep so the on/off comparison sees identical work.
func (l *ladder) walk(rec *recorder, keep bool) error {
	reg := metrics.NewRegistry()
	encTier := blockcache.New("ladder-encode", 64<<20, reg)
	decTier := blockcache.CellCacheOn(blockcache.New("ladder-decode", 256<<20, reg))
	enc := codec.NewEncoder(codec.DefaultParams()).Layered(uint8(len(l.c.strides)))
	preset := &presetBlocks{tier: blockcache.BlockCacheOn(encTier)}
	encCached := enc.Cached(preset)
	dec := codec.Decoder{}
	lad := tier.New(l.c.strides)
	stamp := func(key string, t0 time.Time) {
		if keep {
			l.samples[key] = append(l.samples[key], float64(time.Since(t0)))
		}
	}

	sp := rec.begin("generate", -1)
	cc := l.c
	cc.frames = l.frames
	video := cc.video(l.seed)
	rec.end(sp)
	l.video = video
	bounds, ok := video.Bounds()
	if !ok {
		return fmt.Errorf("ladder: empty video")
	}
	grid, err := cell.NewGrid(bounds, cell.Size50)
	if err != nil {
		return err
	}
	vis := vivo.New(grid, vivo.DefaultParams())
	var joint *predict.Joint
	if l.sim {
		if joint, err = newJoint(ladderUsers); err != nil {
			return err
		}
	}
	ctrl := abr.NewController(abr.DefaultConfig())
	var sizes []int
	l.points = 0

	for f := 0; f < l.frames; f++ {
		frame := rec.begin("frame", f)
		cloud := video.Frames[f]

		// encode: occupancy, partition, one layered encode per cell.
		sp = rec.begin("encode", f)
		t0 := time.Now()
		occ := grid.OccupiedCells(cloud)
		stamp("cell.occupied", t0)
		parts := grid.Partition(cloud)
		ids := make([]cell.ID, 0, len(parts))
		for id := range parts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		full := make(map[cell.ID]*codec.Block, len(ids))
		for _, id := range ids {
			t0 = time.Now()
			full[id] = enc.EncodeCell(id, cloud, parts[id], grid.Bounds(id))
			stamp("codec.encode_cell", t0)
		}
		rec.end(sp)

		// cache: the encode tier's miss path (hash + insert), then its hit
		// path (hash + lookup), per cell.
		sp = rec.begin("cache", f)
		for _, id := range ids {
			preset.next = full[id]
			t0 = time.Now()
			encCached.EncodeCell(id, cloud, parts[id], grid.Bounds(id))
			stamp("blockcache.encode_miss", t0)
			t0 = time.Now()
			hit := encCached.EncodeCell(id, cloud, parts[id], grid.Bounds(id))
			stamp("blockcache.encode_hit", t0)
			if keep && hit != full[id] {
				l.problem("frame %d cell %d: encode tier hit returned a different block", f, id)
			}
		}
		rec.end(sp)

		// The store later stages read: this frame alone, every rung a
		// layer-prefix view of the one encode (what vivo.BuildStore makes).
		fb := &vivo.FrameBlocks{Occupied: occ, ByStride: map[int]map[cell.ID]*codec.Block{l.c.strides[0]: full}}
		for r := 1; r < len(l.c.strides); r++ {
			m := make(map[cell.ID]*codec.Block, len(full))
			for id, b := range full {
				m[id] = b.TierView(lad.LayersFor(r, b.Layers()))
			}
			fb.ByStride[l.c.strides[r]] = m
		}
		store, err := vivo.NewStore(grid, l.c.strides, 30, []*vivo.FrameBlocks{fb})
		if err != nil {
			return err
		}

		// cull: one visibility request per viewer.
		sp = rec.begin("cull", f)
		poses := make([]geom.Pose, ladderUsers)
		reqs := make([]vivo.Request, ladderUsers)
		for u := range reqs {
			poses[u] = l.views[u].PoseAt(f)
			t0 = time.Now()
			reqs[u] = vis.Request(occ, poses[u])
			stamp("vivo.request", t0)
			if keep {
				l.samples["vivo.request_cells"] = append(l.samples["vivo.request_cells"], float64(len(reqs[u].Cells)))
			}
		}
		rec.end(sp)

		// plan: the hub's tier arithmetic for viewer 0 — and, on the sim
		// workload, the cross-layer planner for all viewers.
		sp = rec.begin("plan", f)
		planned := make([]plannedCell, 0, len(reqs[0].Cells))
		for _, cr := range reqs[0].Cells {
			eff, _ := lad.Degrade(cr.Stride, 0)
			rung := lad.RungFor(eff)
			blk := store.LayeredBlock(0, cr.ID)
			if blk == nil {
				continue
			}
			n := lad.LayersFor(rung, blk.Layers())
			planned = append(planned, plannedCell{id: cr.ID, stride: lad.StrideAt(rung), layers: n, payload: blk.Prefix(n)})
		}
		if l.sim {
			psp := rec.begin("predict", f)
			if err := joint.Observe(poses); err != nil {
				return err
			}
			predicted := joint.PredictAll(0.3)
			predict.ForecastBlockages(l.netw.Radio.Array.Pos, predicted)
			rec.end(psp)
			plan, err := l.plan(store, reqs, poses, f)
			if err != nil {
				return err
			}
			for u := range plan.Users {
				ctrl.Decide(abr.State{
					PredictedMbps: plan.Users[u].UnicastRateMbps,
					DemandMbps:    codec.BitrateMbps(float64(plan.Users[u].RequestBytes), 30),
					BufferLevel:   0.5, BufferCapacity: 1, GroupEfficiency: 1,
				})
			}
		}
		rec.end(sp)
		if len(planned) == 0 {
			return fmt.Errorf("ladder: frame %d planned no cells", f)
		}

		// serialize: each planned cell framed once into a pooled buffer.
		sp = rec.begin("serialize", f)
		bufs := make([]*wire.Buffer, 0, len(planned)+1)
		for _, pc := range planned {
			t0 = time.Now()
			b, err := wire.NewBuffer(&wire.CellData{
				Frame: uint32(f), CellID: uint32(pc.id), Stride: tier.WireStride(pc.stride),
				Payload: pc.payload, Layers: uint8(pc.layers),
			})
			stamp("wire.new_buffer", t0)
			if err != nil {
				return err
			}
			bufs = append(bufs, b)
			sizes = append(sizes, len(pc.payload))
		}
		fcb, err := wire.NewBuffer(&wire.FrameComplete{Frame: uint32(f), Cells: uint32(len(planned))})
		if err != nil {
			return err
		}
		bufs = append(bufs, fcb)
		rec.end(sp)

		// send, read: vectored writes onto the loopback pair, each batch
		// read back message by message before the next is written.
		msgs := make([]wire.Message, 0, len(bufs))
		for lo := 0; lo < len(bufs); {
			hi, n := lo, 0
			for hi < len(bufs) && (hi == lo || n+bufs[hi].Len() <= sendBatch) {
				n += bufs[hi].Len()
				hi++
			}
			sp = rec.begin("send", f)
			vec := make(net.Buffers, 0, hi-lo)
			for _, b := range bufs[lo:hi] {
				vec = append(vec, b.Bytes())
			}
			l.a.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_, err := vec.WriteTo(l.a)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("ladder: send: %w", err)
			}
			sp = rec.begin("read", f)
			l.b.SetReadDeadline(time.Now().Add(10 * time.Second))
			for i := lo; i < hi; i++ {
				t0 = time.Now()
				m, err := wire.ReadMessage(l.b)
				stamp("wire.read_message", t0)
				if err != nil {
					return fmt.Errorf("ladder: read: %w", err)
				}
				msgs = append(msgs, m)
			}
			rec.end(sp)
			lo = hi
		}
		if keep {
			// ReadMessage∘NewBuffer must be the identity on bytes.
			for i, m := range msgs {
				back, err := wire.NewBuffer(m)
				if err != nil || !bytes.Equal(back.Bytes(), bufs[i].Bytes()) {
					l.problem("frame %d message %d: re-framing what was read differs from what was sent (err=%v)", f, i, err)
				}
				if back != nil {
					back.Release()
				}
			}
		}
		for _, b := range bufs {
			b.Release()
		}

		// decode: every received cell, then the decode tier's miss and hit
		// paths as a child.
		sp = rec.begin("decode", f)
		var cells []*wire.CellData
		for _, m := range msgs {
			if cd, ok := m.(*wire.CellData); ok {
				cells = append(cells, cd)
			}
		}
		decoded := make([]*codec.DecodedCell, len(cells))
		for i, cd := range cells {
			t0 = time.Now()
			dc, err := dec.Decode(cd.Payload)
			stamp("codec.decode_cell", t0)
			if err != nil {
				l.problem("frame %d cell %d: decode: %v", f, cd.CellID, err)
				continue
			}
			decoded[i] = dc
			l.points += len(dc.Points)
			if keep {
				pc := planned[i]
				if want := full[pc.id].PointsAtTier(pc.layers); len(dc.Points) != want {
					l.problem("frame %d cell %d: decoded %d points, encoded %d", f, pc.id, len(dc.Points), want)
				}
				if f == 0 && pc.layers == full[pc.id].Layers() {
					l.checkQuantization(grid, cloud, parts[pc.id], pc.id, dc, enc.Params().QuantBits)
				}
			}
		}
		csp := rec.begin("cache", f)
		for i, cd := range cells {
			if decoded[i] == nil {
				continue
			}
			// The decode tier's miss path (hash + insert) and hit path
			// (hash + lookup), handed the cell decoded above so neither
			// decodes again.
			dc := decoded[i]
			preset := func() (*codec.DecodedCell, error) { return dc, nil }
			decTier.Cell(codec.HashBytes(cd.Payload), preset)
			t0 = time.Now()
			decTier.Cell(codec.HashBytes(cd.Payload), preset)
			stamp("blockcache.decode_hit", t0)
		}
		rec.end(csp)
		rec.end(sp)
		rec.end(frame)

		l.store, l.reqs, l.poses = store, reqs, poses
		if keep && f == 0 {
			l.bitsPerPoint = codec.Measure(full).BitsPerPoint
		}
	}
	if keep && len(sizes) > 0 {
		sort.Ints(sizes)
		l.payload = make([]byte, sizes[len(sizes)/2])
	}
	return nil
}

// plan runs the cross-layer planner for one ladder frame.
func (l *ladder) plan(store *vivo.Store, reqs []vivo.Request, poses []geom.Pose, seq int) (*core.FramePlan, error) {
	positions := make([]geom.Vec3, len(poses))
	bodies := make([]phy.Body, len(poses))
	for u, p := range poses {
		positions[u] = p.Pos
		bodies[u] = phy.DefaultBody(p.Pos)
	}
	return l.planner.Plan(core.ModeMulticast, core.FrameInput{
		Store: store, Frame: 0, Requests: reqs, Positions: positions, Bodies: bodies,
		CustomBeams: true, Seq: seq,
	})
}

// checkQuantization verifies decode∘encode on one full-density cell: every
// source point has a decoded point within one quantization step on every
// axis. Decoded points are bucketed on the step lattice and each source
// point searches its 27 neighbouring buckets.
func (l *ladder) checkQuantization(grid *cell.Grid, cloud *pointcloud.Cloud, idxs []int, id cell.ID, dc *codec.DecodedCell, quantBits uint8) {
	b := grid.Bounds(id)
	step := grid.Size() / float64(uint64(1)<<quantBits)
	type key [3]int32
	at := func(p geom.Vec3) key {
		d := p.Sub(b.Min)
		return key{int32(math.Floor(d.X / step)), int32(math.Floor(d.Y / step)), int32(math.Floor(d.Z / step))}
	}
	buckets := make(map[key][]geom.Vec3, len(dc.Points))
	for _, p := range dc.Points {
		k := at(p.Pos)
		buckets[k] = append(buckets[k], p.Pos)
	}
	near := func(p geom.Vec3) bool {
		k := at(p)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dz := int32(-1); dz <= 1; dz++ {
					for _, q := range buckets[key{k[0] + dx, k[1] + dy, k[2] + dz}] {
						d := q.Sub(p)
						if math.Abs(d.X) <= step && math.Abs(d.Y) <= step && math.Abs(d.Z) <= step {
							return true
						}
					}
				}
			}
		}
		return false
	}
	for _, i := range idxs {
		if !near(cloud.Points[i].Pos) {
			l.problem("cell %d: a source point has no decoded point within one quantization step (%.2g m)", id, step)
			return
		}
	}
}
