package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/hub"
	"volcast/internal/obs"
	"volcast/internal/pointcloud"
	"volcast/internal/trace"
	"volcast/internal/transport"
	"volcast/internal/vivo"
)

// cacheMB is the hub-wide block cache budget every workload runs under:
// the program's own default, set explicitly so VOLCAST_CACHE_MB in the
// caller's environment cannot change what is measured.
const cacheMB = blockcache.DefaultBudgetMB

// cohortSeed pins the viewer cohort. What a viewer sees — how many cells,
// at which density, from how far — decides how much work a frame is, and
// between two cohort draws that differs by more than any bound could
// absorb (the simulator's cost per frame moved 50% between cohorts). The
// run's --seed drives the content and the fading processes instead, which
// change every input byte but not the shape of the work.
const cohortSeed = 1

// flushCaches empties both block cache tiers, so a repeated set-up pays
// the same encode work as the first.
func flushCaches() {
	blockcache.SetBudgetMB(0)
	blockcache.SetBudgetMB(cacheMB)
	// Collect what the flush (and any earlier set-up) left behind, so each
	// set-up starts from the same heap and the collector's phase does not
	// depend on how the previous one happened to end.
	runtime.GC()
}

// content describes one synthetic video.
type content struct {
	frames, points, performers int
	strides                    []int
}

// quick shrinks a content to smoke-test size.
func (c content) quick() content {
	c.frames, c.points = 3, 8_000
	return c
}

// video generates the content's frames for a seed.
func (c content) video(seed int64) *pointcloud.Video {
	if c.performers <= 1 {
		return pointcloud.SynthVideo(c.synth(seed))
	}
	return pointcloud.SynthScene(pointcloud.DefaultSceneConfig(c.frames, c.points, seed))
}

func (c content) synth(seed int64) pointcloud.SynthConfig {
	return pointcloud.SynthConfig{Frames: c.frames, FPS: 30, PointsPerFrame: c.points, Seed: seed, Sway: 1}
}

// build generates and encodes the content through enc's cache (nil
// blocks = the process-wide encode tier).
func (c content) build(seed int64, blocks codec.BlockCache) (*vivo.Store, error) {
	v := c.video(seed)
	b, ok := v.Bounds()
	if !ok {
		return nil, fmt.Errorf("bench: empty video")
	}
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		return nil, err
	}
	return vivo.BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(blocks), c.strides)
}

// hubRig is one hub serving on TCP loopback inside this process.
type hubRig struct {
	h    *hub.Hub
	addr string
	done chan error
}

// storeFactory is hub.Config.NewStore: it builds a scene's store through
// the scene's view of the shared encode tier.
type storeFactory func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error)

// scenesOf builds every scene from c, seeded by seedOf(scene).
func scenesOf(c content, seedOf func(scene uint32) int64) storeFactory {
	return func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
		return c.build(seedOf(scene), blocks)
	}
}

// startHub starts a hub on a loopback port. fps 0 is the store's rate and
// reapAfter 0 the hub's default. Diagnostics are dropped: stdout and
// stderr belong to the report.
func startHub(newStore storeFactory, fps int, reapAfter time.Duration, tr *obs.Tracer) (*hubRig, error) {
	h, err := hub.New(hub.Config{
		NewStore:  newStore,
		FPS:       fps,
		ReapAfter: reapAfter,
		Trace:     tr,
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	r := &hubRig{h: h, done: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() { r.done <- h.ListenAndServe("127.0.0.1:0", ready) }()
	select {
	case r.addr = <-ready:
		return r, nil
	case err := <-r.done:
		return nil, err
	}
}

// stop drains the hub and waits for its accept loop to return.
func (r *hubRig) stop() {
	r.h.Shutdown()
	<-r.done
}

// frameSample is one completed frame as a client saw it.
type frameSample struct {
	at  time.Time
	lat time.Duration
}

// player is one transport client and what it observed.
type player struct {
	cfg    transport.ClientConfig
	dialed time.Time
	first  chan struct{} // closed at the first completed frame
	// stopAfter > 0 ends the session (by calling stop) at that many frames.
	stopAfter int
	stop      context.CancelFunc
	samples   []frameSample
	// done counts completed frames; unlike samples it may be read while
	// the client runs.
	done  atomic.Int64
	stats transport.ClientStats
	err   error
}

// newPlayer wraps a push client's config (address, identity, scene, pose
// stream, decode, tracer) with the frame recorder. OnFrameLatency runs on
// the client's receive loop, so samples need no lock until run returns.
// Sessions end by cancel, not by clock.
func newPlayer(cfg transport.ClientConfig, capHint int) *player {
	p := &player{cfg: cfg, first: make(chan struct{}), samples: make([]frameSample, 0, capHint)}
	p.cfg.Name = fmt.Sprintf("bench%d", cfg.ID)
	p.cfg.Duration = 10 * time.Minute
	p.cfg.OnFrameLatency = func(d time.Duration) {
		p.samples = append(p.samples, frameSample{at: time.Now(), lat: d})
		p.done.Add(1)
		if len(p.samples) == 1 {
			close(p.first)
		}
		if len(p.samples) == p.stopAfter {
			p.stop()
		}
	}
	return p
}

func (p *player) run(ctx context.Context) {
	p.dialed = time.Now()
	p.stats, p.err = transport.RunClient(ctx, p.cfg)
}

// fleet runs players concurrently until ctx ends.
type fleet struct {
	players []*player
	wg      sync.WaitGroup
}

func (f *fleet) start(ctx context.Context) {
	for _, p := range f.players {
		f.wg.Add(1)
		go func(p *player) {
			defer f.wg.Done()
			p.run(ctx)
		}(p)
	}
}

// awaitFirstFrames blocks until every player completed a frame.
func (f *fleet) awaitFirstFrames(timeout time.Duration) error {
	deadline := time.After(timeout)
	for _, p := range f.players {
		select {
		case <-p.first:
		case <-deadline:
			return fmt.Errorf("bench: no first frame within %v", timeout)
		}
	}
	return nil
}

// stageTargets are the performers' torso centres for a content's
// performer count (pointcloud.DefaultSceneConfig's offsets; a single
// performer stands at the origin).
func stageTargets(performers int) []geom.Vec3 {
	if performers <= 1 {
		return []geom.Vec3{geom.V(0, 1, 0)}
	}
	return []geom.Vec3{geom.V(-1.8, 1, 0.4), geom.V(0, 1, -0.3), geom.V(1.8, 1, 0.5)}
}

// inView reports whether any target is inside pose's frustum, with the
// field of view scaled by fov.
func inView(pose geom.Pose, targets []geom.Vec3, fov float64) bool {
	fp := vivo.DefaultParams().Frustum
	fp.FovY *= fov
	f := geom.NewFrustum(pose, fp)
	for _, t := range targets {
		if f.ContainsPoint(t) {
			return true
		}
	}
	return false
}

// viewer builds client i's pose stream from the study cohort.
//
// It splices one-second segments of different participants — client i
// watches as user i, i+step, i+2·step, … — because two clients pinned to
// two of the 32 users would make every metric hinge on which two the seed
// picked (their mean visible points differ 2×); the splice samples the
// whole cohort's viewing positions inside one run.
//
// It then holds the last pose whenever the participant looks away from
// every performer. A frame culled to zero cells completes without a
// latency sample, so a viewer who looks away would make frames vanish
// from the accounting; a viewer who keeps a performer in view makes every
// owed frame observable. The hold uses a narrowed frustum, and a second
// pass checks the interpolated poses the client will actually send.
func viewer(study *trace.Study, i, step, seconds int, targets []geom.Vec3) *trace.Trace {
	hz := study.Traces[0].Hz
	out := &trace.Trace{UserID: i, Device: study.Traces[i%len(study.Traces)].Device, Hz: hz}
	for s := 0; s < seconds; s++ {
		src := study.Traces[(i+s*step)%len(study.Traces)]
		for k := 0; k < hz; k++ {
			n := s*hz + k
			out.Samples = append(out.Samples, trace.Sample{T: float64(n) / float64(hz), Pose: src.PoseAt(n % src.Len())})
		}
	}
	// Start from the first pose that sees a performer (the cohort always
	// has one within its first seconds; fall back to looking at the stage).
	last := geom.Pose{Pos: geom.V(0, 1.6, 3), Rot: geom.LookRotation(geom.V(0, -0.2, -1), geom.V(0, 1, 0))}
	for _, sm := range out.Samples {
		if inView(sm.Pose, targets, 0.6) {
			last = sm.Pose
			break
		}
	}
	for n := range out.Samples {
		if inView(out.Samples[n].Pose, targets, 0.6) {
			last = out.Samples[n].Pose
		} else {
			out.Samples[n].Pose = last
		}
	}
	for n := 1; n < len(out.Samples); n++ {
		a, b := out.Samples[n-1].Pose, out.Samples[n].Pose
		for k := 1; k < 8; k++ {
			if !inView(a.Lerp(b, float64(k)/8), targets, 1) {
				out.Samples[n].Pose = a
				break
			}
		}
	}
	return out
}
