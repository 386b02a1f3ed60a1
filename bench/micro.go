package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"volcast/internal/abr"
	"volcast/internal/beam"
	"volcast/internal/blockcache"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/multicast"
	"volcast/internal/obs"
	"volcast/internal/pointcloud"
	"volcast/internal/predict"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// micro times single public calls of each layer on the ladder's content:
// the per-call and per-allocation metrics that spans are too coarse for.
// It runs alone on one goroutine, after the ladder passes.
func (l *ladder) micro(v map[string]float64, quick bool) error {
	reps := 5
	if quick {
		reps = 2
	}
	med := func(key string) float64 { return median(l.samples[key]) }

	// pointcloud, cell
	cfg := l.c.synth(l.seed)
	v["pointcloud.synth_frame_us"] = median(timeCalls(reps, func(i int) { sink = pointcloud.SynthFrame(cfg, i) })) / 1e3
	v["pointcloud.synth_frame_allocs"], _ = allocsPer(2, func(i int) { sink = pointcloud.SynthFrame(cfg, i) })
	v["cell.occupied_us"] = med("cell.occupied") / 1e3

	// codec, encode side
	cloud := l.video.Frames[0]
	grid := l.store.Grid()
	enc := codec.NewEncoder(codec.DefaultParams()).Layered(uint8(len(l.c.strides)))
	v["codec.encode_cell_us"] = med("codec.encode_cell") / 1e3
	v["codec.encode_frame_ms"] = median(timeCalls(reps, func(int) { sink = enc.EncodeFrame(grid, cloud) })) / 1e6
	v["codec.encode_allocs_per_frame"], _ = allocsPer(2, func(int) { sink = enc.EncodeFrame(grid, cloud) })
	v["codec.encode_bits_per_point"] = l.bitsPerPoint

	// codec, decode side
	blocks := enc.EncodeFrame(grid, cloud)
	dec := codec.Decoder{}
	v["codec.decode_cell_us"] = med("codec.decode_cell") / 1e3
	v["codec.decode_frame_ms"] = median(timeCalls(reps, func(int) { sink, _ = dec.DecodeFrame(blocks) })) / 1e6
	v["codec.decode_allocs_per_frame"], _ = allocsPer(2, func(int) { sink, _ = dec.DecodeFrame(blocks) })
	var decodeNS float64
	for _, d := range l.samples["codec.decode_cell"] {
		decodeNS += d
	}
	if decodeNS > 0 {
		v["codec.decode_mpts_per_s"] = float64(l.points) / decodeNS * 1e3
	}
	var layered *codec.Block
	for _, b := range blocks {
		if layered == nil || b.Size() > layered.Size() {
			layered = b
		}
	}
	v["codec.prefix_ns"] = median(timeBatches(21, 2000, func() {
		sink = layered.Prefix(1)
		sink = layered.Delta(1, layered.Layers())
	}))

	// blockcache
	v["blockcache.encode_hit_us"] = med("blockcache.encode_hit") / 1e3
	v["blockcache.encode_miss_overhead_us"] = med("blockcache.encode_miss") / 1e3
	v["blockcache.decode_hit_us"] = med("blockcache.decode_hit") / 1e3

	// vivo
	v["vivo.build_store_ms"] = median(timeCalls(reps, func(int) {
		own := blockcache.BlockCacheOn(blockcache.New("ladder-build", 64<<20, metrics.NewRegistry()))
		sink, _ = vivo.BuildStore(l.video, grid, codec.NewEncoder(codec.DefaultParams()).Cached(own), l.c.strides)
	})) / 1e6 / float64(l.frames)
	vis := vivo.New(grid, vivo.DefaultParams())
	occ := l.store.Frame(0).Occupied
	v["vivo.request_us"] = med("vivo.request") / 1e3
	v["vivo.request_allocs"], _ = allocsPer(50, func(i int) { sink = vis.Request(occ, l.poses[i%len(l.poses)]) })
	v["vivo.request_cells"] = mean(l.samples["vivo.request_cells"])

	// wire: CellData at the workload's median payload, and the smallest
	// message (PoseUpdate), where per-message cost is all there is.
	cd := &wire.CellData{Frame: 1, CellID: 7, Stride: 1, Payload: l.payload, Layers: uint8(len(l.c.strides))}
	v["wire.new_buffer_us"] = med("wire.new_buffer") / 1e3
	v["wire.new_buffer_allocs"], _ = allocsPer(200, func(int) {
		b, err := wire.NewBuffer(cd)
		if err == nil {
			b.Release()
		}
	})
	framed, err := wire.AppendMessage(nil, cd)
	if err != nil {
		return err
	}
	rd := bytes.NewReader(framed)
	v["wire.read_message_us"] = med("wire.read_message") / 1e3
	v["wire.read_message_allocs"], v["wire.read_message_alloc_bytes"] = allocsPer(200, func(int) {
		rd.Reset(framed)
		sink, _ = wire.ReadMessage(rd)
	})
	pose := &wire.PoseUpdate{Seq: 1, T: 0.5, Pose: l.poses[0]}
	scratch := make([]byte, 0, 256)
	v["wire.pose_append_ns"] = median(timeBatches(21, 2000, func() { scratch, _ = wire.AppendMessage(scratch[:0], pose) }))

	// The simulator's decision layers, on this content's requests and the
	// viewers' last poses.
	positions := make([]geom.Vec3, len(l.poses))
	for u, p := range l.poses {
		positions[u] = p.Pos
	}
	n := 3 * reps
	var groups float64
	planNS := timeCalls(n, func(int) {
		p, err := l.plan(l.store, l.reqs, l.poses, 0)
		if err == nil {
			groups += float64(len(p.Groups))
		}
	})
	v["core.plan_us"] = median(planNS) / 1e3
	v["core.plan_allocs"], _ = allocsPer(3, func(int) { sink, _ = l.plan(l.store, l.reqs, l.poses, 0) })
	v["multicast.groups_per_frame"] = groups / float64(n)

	// Grouping alone: the greedy partition over tables of the planner's
	// own overlap bytes and multicast rates, so no PHY work is timed.
	plan, err := l.plan(l.store, l.reqs, l.poses, 0)
	if err != nil {
		return err
	}
	members := func(mask int) []int {
		var m []int
		for u := 0; u < ladderUsers; u++ {
			if mask&(1<<u) != 0 {
				m = append(m, u)
			}
		}
		return m
	}
	maskOf := func(ms []int) int {
		mask := 0
		for _, u := range ms {
			mask |= 1 << u
		}
		return mask
	}
	overlap := make([]int, 1<<ladderUsers)
	rate := make([]float64, 1<<ladderUsers)
	for mask := 1; mask < 1<<ladderUsers; mask++ {
		ms := members(mask)
		pos := make([]geom.Vec3, len(ms))
		for i, u := range ms {
			pos[i] = positions[u]
		}
		overlap[mask] = plan.OverlapBytes(ms)
		rate[mask] = l.netw.MulticastRateOffset(pos, nil, true)
	}
	prob := &multicast.Problem{
		Users:         plan.Users,
		OverlapBytes:  func(ms []int) int { return overlap[maskOf(ms)] },
		MulticastRate: func(ms []int) float64 { return rate[maskOf(ms)] },
	}
	v["multicast.greedy_us"] = median(timeBatches(11, 50, func() { sink, _ = prob.Greedy() })) / 1e3

	// beam, phy, mac
	des := l.netw.Designer
	group := make([]beam.Member, len(positions))
	for i, p := range positions {
		group[i] = des.MemberFor(p)
	}
	v["beam.select_us"] = median(timeCalls(n, func(int) { sink, _, _, _ = des.Select(group) })) / 1e3
	v["beam.design_custom_us"] = median(timeCalls(n, func(int) { sink, _ = des.DesignCustom(group) })) / 1e3
	radio := l.netw.Radio
	v["phy.sweep_best_sector_us"] = median(timeCalls(n, func(i int) {
		sink, _ = radio.SweepBestSector(l.netw.Codebook, positions[i%len(positions)])
	})) / 1e3
	v["phy.paths_us"] = median(timeBatches(11, 50, func() { sink = radio.Channel.Paths(radio.Array.Pos, positions[0]) })) / 1e3
	rss := make([]float64, len(group))
	for i, m := range group {
		rss[i] = m.RSSDBm
	}
	v["mac.goodput_ns"] = median(timeBatches(21, 2000, func() { sink = l.netw.MAC.GoodputForRSS(rss) }))

	// predict, abr
	joint, err := newJoint(ladderUsers)
	if err != nil {
		return err
	}
	for i := 0; i < 30; i++ {
		if err := joint.Observe(l.viewPoses(i)); err != nil {
			return err
		}
	}
	frame := 30
	v["predict.observe_ns"] = median(timeBatches(21, 200, func() {
		joint.Observe(l.viewPoses(frame))
		frame++
	}))
	v["predict.predict_all_us"] = median(timeBatches(21, 200, func() { sink = joint.PredictAll(0.3) })) / 1e3
	ctrl := abr.NewController(abr.DefaultConfig())
	state := abr.State{PredictedMbps: 400, DemandMbps: 300, NextUpDemandMbps: 390, BufferLevel: 0.5, BufferCapacity: 1, GroupEfficiency: 1}
	v["abr.decide_ns"] = median(timeBatches(21, 2000, func() { sink = ctrl.Decide(state) }))

	// The instruments themselves.
	tr := obs.New(1 << 16)
	epoch := time.Now()
	v["obs.record_ns"] = median(timeBatches(21, 2000, func() { tr.Record(1, 1, obs.StageSend, epoch, time.Microsecond) }))
	reg := metrics.NewRegistry()
	ctr := reg.Counter("bench.counter")
	v["metrics.counter_inc_ns"] = median(timeBatches(21, 2000, ctr.Inc))
	win := reg.Windowed("bench.window", nil)
	v["metrics.windowed_observe_ns"] = median(timeBatches(21, 2000, func() { win.Observe(1.5) }))
	return nil
}

// viewPoses returns every ladder viewer's pose at frame i (wrapping).
func (l *ladder) viewPoses(i int) []geom.Pose {
	out := make([]geom.Pose, len(l.views))
	for u, t := range l.views {
		out[u] = t.PoseAt(i % t.Len())
	}
	return out
}

// hubProbes measures two hub paths no push metric covers, against a hub
// serving the ladder's last store with one subscriber keeping the scene
// live: a warm join (Hello → Welcome on a live scene) and a pull round
// trip (one-cell SegmentRequest → FrameComplete, closed loop).
func (l *ladder) hubProbes(v map[string]float64, quick bool) error {
	rig, err := startHub(func(uint32, codec.BlockCache) (*vivo.Store, error) { return l.store, nil }, 0, 0, nil)
	if err != nil {
		return err
	}
	defer rig.stop()

	hello := func(flags uint8) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", rig.addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		if err := wire.WriteMessage(conn, &wire.Hello{ClientID: 900, Name: "probe", Flags: flags}); err != nil {
			conn.Close()
			return nil, err
		}
		m, err := wire.ReadMessage(conn)
		if err == nil {
			if _, ok := m.(*wire.Welcome); !ok {
				err = fmt.Errorf("probe: expected Welcome, got %v", m.Type())
			}
		}
		if err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}

	// The pull connection doubles as the subscriber that keeps scene 0
	// live (the hub never pushes to a pull client).
	pull, err := hello(wire.HelloFlagPull)
	if err != nil {
		return err
	}
	defer pull.Close()

	joins, pulls := 30, 300
	if quick {
		joins, pulls = 5, 30
	}
	var joinErr error
	v["hub.join_warm_ms"] = median(timeCalls(joins, func(int) {
		conn, err := hello(0)
		if err != nil {
			joinErr = err
			return
		}
		conn.Close()
	})) / 1e6
	if joinErr != nil {
		return joinErr
	}

	ref := []wire.CellRef{{CellID: uint32(l.reqs[0].Cells[0].ID), Stride: 1}}
	var pullErr error
	v["hub.pull_rtt_us"] = median(timeCalls(pulls, func(i int) {
		if err := wire.WriteMessage(pull, &wire.SegmentRequest{Frame: uint32(i), Cells: ref}); err != nil {
			pullErr = err
			return
		}
		for {
			m, err := wire.ReadMessage(pull)
			if err != nil {
				pullErr = err
				return
			}
			if _, done := m.(*wire.FrameComplete); done {
				return
			}
		}
	})) / 1e3
	return pullErr
}

// newJoint builds the session engine's predictor stack for n users.
func newJoint(n int) (*predict.Joint, error) {
	preds := make([]predict.Predictor, n)
	for u := range preds {
		lin, err := predict.NewLinear(30, 20)
		if err != nil {
			return nil, err
		}
		preds[u] = lin
	}
	return predict.NewJoint(preds, geom.V(0, 1.2, 0)), nil
}
