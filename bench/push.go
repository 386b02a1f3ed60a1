package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/trace"
	"volcast/internal/transport"
)

// pushSpec is an open-loop workload: the hub ticks at fps and pushes
// every frame to C subscribed clients whether or not they keep up.
type pushSpec struct {
	c      content
	fps    int
	decode bool
}

var (
	// The viewer's case: client read + decode + the decode tier do nearly
	// all the work. 30 looped frames of ~2.5 MB decoded per viewer are
	// over twice the 32 MB decode tier, so the tier evicts throughout.
	pushDense = pushSpec{c: content{frames: 30, points: 100_000, performers: 1, strides: []int{1, 2}}, fps: 30, decode: true}
	// The operator's case: nothing is decoded and the hub ticks 8× faster,
	// so cull/plan/serialize/enqueue/write and wire framing are the cost.
	pushFanout = pushSpec{c: content{frames: 30, points: 60_000, performers: 3, strides: []int{1, 2}}, fps: 240, decode: false}
)

// liveHub is a hub with its fleet joined and streaming.
type liveHub struct {
	rig    *hubRig
	fleet  *fleet
	cancel context.CancelFunc
}

// pushRound is the length of one round of an open loop's window (see
// round): 15 or 120 frames per client.
const pushRound = 500 * time.Millisecond

// drainFor is how long after the window clients may take to complete the
// frames pushed inside it.
const drainFor = 10 * time.Second

// drain waits until every player completed owed frames beyond its done0
// count, or until the timeout, and returns how many each still lacks.
func (f *fleet) drain(done0 []int64, owed int, timeout time.Duration) []int {
	short := make([]int, len(f.players))
	for deadline := time.Now().Add(timeout); ; time.Sleep(5 * time.Millisecond) {
		missing := 0
		for i, p := range f.players {
			short[i] = max(0, owed-int(p.done.Load()-done0[i]))
			missing += short[i]
		}
		if missing == 0 || time.Now().After(deadline) {
			return short
		}
	}
}

func (l *liveHub) teardown() {
	l.cancel()
	l.fleet.wg.Wait()
	l.rig.stop()
}

// setUp flushes the caches, starts a hub, joins the fleet to scene 0 and
// returns once every client completed a frame: content generated, store
// built, hub listening, clients streaming.
func (s pushSpec) setUp(o options, study *trace.Study, tr *obs.Tracer) (*liveHub, error) {
	flushCaches()
	rig, err := startHub(scenesOf(s.c, func(uint32) int64 { return o.seed }), s.fps, -1, tr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &liveHub{rig: rig, fleet: &fleet{}, cancel: cancel}
	seconds := int(o.seconds+o.warmup().Seconds()+drainFor.Seconds()) + 5
	for i := 0; i < o.clients; i++ {
		l.fleet.players = append(l.fleet.players, newPlayer(transport.ClientConfig{
			Addr: rig.addr, ID: uint32(i + 1), Decode: s.decode, Tracer: tr,
			Trace: viewer(study, i, o.clients, seconds, stageTargets(s.c.performers)),
		}, s.fps*seconds))
	}
	l.fleet.start(ctx)
	if err := l.fleet.awaitFirstFrames(2 * time.Minute); err != nil {
		l.teardown()
		return nil, err
	}
	return l, nil
}

func runPush(spec pushSpec, o options, mode passMode) (*result, error) {
	if o.quick {
		spec.c = spec.c.quick()
	}
	res := newResult()
	goroutines0 := runtime.NumGoroutine()
	tr := mode.tracer()
	study := trace.GenerateStudy(int(o.seconds+o.warmup().Seconds()+drainFor.Seconds()+6)*30, cohortSeed)

	var live *liveHub
	var setupS []float64
	for i := 0; i < o.setups(); i++ {
		if live != nil {
			live.teardown()
		}
		took, err := timeSetUp(func() (err error) {
			live, err = spec.setUp(o, study, tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took)
	}
	res.values["setup_s"] = quantile(setupS, quiet)

	// Marks are nested so that every frame the hub pushes between the two
	// snapshots completes after its client's count was read at done0.
	time.Sleep(o.warmup())
	done0 := make([]int64, len(live.fleet.players))
	for i, p := range live.fleet.players {
		done0[i] = p.done.Load()
	}
	snap0 := metrics.Default().Snapshot()
	m0 := markProc()
	// A round runs from the end of one probe to the start of the next, so
	// the probe's own CPU and the frames that complete beside it belong to
	// no round.
	type edge struct {
		before, after time.Time
		cpuBefore     time.Duration
		cpuAfter      time.Duration
		slow          float64
	}
	edges := []edge{{after: m0.at, cpuAfter: m0.cpu}}
	for n := 1; n <= max(1, int(o.window()/pushRound)); n++ {
		time.Sleep(time.Until(m0.at.Add(time.Duration(n) * pushRound)))
		e := edge{before: time.Now(), cpuBefore: cpuTime()}
		e.slow = hostSlowdown()
		e.after, e.cpuAfter = time.Now(), cpuTime()
		edges = append(edges, e)
	}
	m1 := markProc()
	snap := metrics.Default().Snapshot().Delta(snap0)
	infos := live.rig.h.SessionInfos()
	pushed := int(snap.Counters["hub.session.0.frames"])
	short := live.fleet.drain(done0, pushed, drainFor)
	live.teardown()

	// Per-client accounting. The operations attempted are the frames the
	// hub pushed inside the window (its per-scene frame counter). Speed is
	// what completed inside the window; a frame that completed late, after
	// it, is slow — it weighs on frames_per_s and the latencies — but was
	// delivered, so the clients get drainFor to finish what the window
	// owes them before anything is called a failure. What fails is a frame
	// that never arrives: shed by the hub, abandoned mid-burst, undecodable,
	// or still missing when the drain ends. Ticks the hub's ticker skipped
	// were never attempted: they show in frames_per_s and hub.ticks_skipped.
	wall := m1.at.Sub(m0.at).Seconds()
	res.values["hub.ticks_skipped"] = float64(max(0, int(wall*float64(spec.fps))-pushed))
	var lat []float64
	var delivered, late, gaps int
	var bytes, mcBytes, points, framesAll int64
	byRound := make([][]float64, len(edges)-1)
	for i, p := range live.fleet.players {
		if p.err != nil {
			res.fail(1, "client %d: %v", i, p.err)
		}
		var prev time.Time
		n := 0
		for _, s := range p.samples {
			if s.at.Before(m0.at) || !s.at.Before(m1.at) {
				continue
			}
			delivered++
			lat = append(lat, ms(s.lat))
			for n < len(byRound)-1 && !s.at.Before(edges[n+1].after) {
				n++
			}
			if !s.at.Before(edges[n].after) && s.at.Before(edges[n+1].before) {
				byRound[n] = append(byRound[n], ms(s.lat))
			}
			if !prev.IsZero() {
				gaps++
				if s.at.Sub(prev).Seconds()*float64(spec.fps) > 1.5 {
					late++
				}
			}
			prev = s.at
		}
		res.attempted += pushed
		res.fail(short[i], "client %d: %d of %d frames pushed in the window still missing %v after it", i, short[i], pushed, drainFor)
		res.fail(p.stats.FramesDropped, "client %d dropped %d frames mid-burst", i, p.stats.FramesDropped)
		res.fail(p.stats.DecodeErrors, "client %d: %d decode errors", i, p.stats.DecodeErrors)
		bytes += p.stats.Bytes
		mcBytes += p.stats.MulticastBytes
		points += p.stats.Points
		framesAll += int64(p.stats.Frames)
		res.values["transport.frames_dropped"] += float64(p.stats.FramesDropped)
		res.values["transport.decode_errors"] += float64(p.stats.DecodeErrors)
		res.values["transport.reconnects"] += float64(p.stats.Reconnects)
		res.values["transport.heartbeat_misses"] += float64(p.stats.HeartbeatMisses)
	}
	if delivered == 0 || framesAll == 0 {
		return nil, fmt.Errorf("no frames delivered")
	}

	rounds := make([]round, len(byRound))
	for n, l := range byRound {
		rounds[n] = round{
			wall: edges[n+1].before.Sub(edges[n].after), cpu: edges[n+1].cpuBefore - edges[n].cpuAfter,
			frames: len(l), p50: quantile(l, 0.50), p90: quantile(l, 0.90),
			slow: edges[n+1].slow,
		}
	}
	foldRounds(res, rounds, false)
	res.values["frames_per_s"] = float64(delivered) / wall
	res.values["peak_rss_mb"] = peakRSSMB()
	res.latencies = lat
	res.notes["latency_samples"] = float64(len(lat))

	// Bytes and points are whole-connection totals (the client reports
	// them once, at the end); over looped content their per-frame ratio
	// is the same inside the window as outside it.
	res.values["transport.frame_ms_p99"] = quantile(lat, 0.99)
	res.values["transport.wire_kb_per_frame"] = float64(bytes) / 1024 / float64(framesAll)
	res.values["transport.points_per_frame"] = float64(points) / float64(framesAll)
	if bytes > 0 {
		res.values["transport.multicast_byte_share"] = float64(mcBytes) / float64(bytes)
	}
	if gaps > 0 {
		res.values["hub.tick_late_frac"] = float64(late) / float64(gaps)
	}
	for _, info := range infos {
		res.values["hub.push_to_socket_ms_p50"] = info.P50MS
		res.values["hub.push_to_socket_ms_p95"] = info.P95MS
		res.values["hub.push_to_socket_ms_p99"] = info.P99MS
		res.values["hub.window_misses"] = float64(info.WindowMisses)
	}
	hubCounters(res, snap)
	drops := int(res.values["hub.drops_enqueue"] + res.values["hub.drops_slowclient"] + res.values["hub.serialize_errors"])
	res.fail(drops, "hub dropped %d buffers or subscribers in the window", drops)
	procValues(res, m0, m1, delivered, goroutines0)
	return res, nil
}

// hubCounters copies the registry's fault, lifecycle and cache counters
// for the window into per-layer metrics.
func hubCounters(res *result, snap metrics.Snapshot) {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	res.values["hub.drops_enqueue"] = c("transport.drops.enqueue")
	res.values["hub.drops_slowclient"] = c("transport.drops.slowclient")
	res.values["hub.serialize_errors"] = c("hub.serialize.errors")
	res.values["hub.writer_deaths"] = c("transport.writer.deaths")
	res.values["hub.sessions_built"] = c("hub.sessions.store_builds")
	res.values["hub.sessions_reaped"] = c("hub.sessions.reaped")
	ratio := func(tier string) float64 {
		h, m := c("blockcache."+tier+".hits"), c("blockcache."+tier+".misses")
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	res.values["blockcache.encode_hit_ratio"] = ratio("encode")
	res.values["blockcache.decode_hit_ratio"] = ratio("decode")
	res.values["blockcache.decode_evictions"] = c("blockcache.decode.evictions")
}

// procValues fills the Go-runtime metrics of a window of n operations.
func procValues(res *result, m0, m1 procMark, n int, goroutines0 int) {
	res.values["proc.alloc_kb_per_frame"] = float64(m1.bytes-m0.bytes) / 1024 / float64(n)
	res.values["proc.mallocs_per_frame"] = float64(m1.mallocs-m0.mallocs) / float64(n)
	if cpu := (m1.cpu - m0.cpu).Seconds(); cpu > 0 {
		res.values["proc.gc_cpu_frac"] = (m1.gcCPU - m0.gcCPU) / cpu
	}
	res.values["proc.peak_rss_mb"] = peakRSSMB()
	res.values["proc.goroutines_leaked"] = float64(leakedGoroutines(goroutines0))
}

// leakedGoroutines waits briefly for torn-down workers to unwind, then
// reports how many goroutines outlived the workload.
func leakedGoroutines(before int) int {
	for i := 0; i < 40 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(25 * time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-before)
}
