package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/trace"
	"volcast/internal/transport"
)

// The lifecycle case, a closed loop: each of C clients repeats — join a
// scene nobody has seen (fresh content: generate + encode), take
// joinFrames frames, leave; join a second new scene with the same content
// (generate + hash + encode-tier hits), take joinFrames frames, leave.
// Emptied scenes are reaped after coldReap. It runs the layers the push
// workloads use the other way round: encode beside decode, the encode
// tier beside the decode tier, build/singleflight/reap beside steady state.
var coldContent = content{frames: 10, points: 50_000, performers: 1, strides: []int{1, 2}}

const (
	joinFrames = 5
	// coldFPS is the hub tick. A new scene's first frame goes out one tick
	// after its store is built; a fast tick keeps that wait (and the four
	// frames after it) small beside the build time being measured.
	coldFPS  = 120
	coldReap = 200 * time.Millisecond
)

// join is one completed join.
type join struct {
	cold bool
	ttff time.Duration
	ok   bool
}

// joiner runs join cycles against one hub. Scene pairs are handed out by
// a shared counter, so no two joins ever name the same scene.
type joiner struct {
	rig    *hubRig
	pairs  *atomic.Uint32
	tracer *obs.Tracer
	view   *trace.Trace
	joins  []join
	frames int
	errs   []string
}

// cycle does one cold join and one warm join. Scenes 2n and 2n+1 share
// content seed n (see runColdJoin's seedOf).
func (j *joiner) cycle(id uint32) {
	n := j.pairs.Add(1)
	for k := uint32(0); k < 2; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		p := newPlayer(transport.ClientConfig{
			Addr: j.rig.addr, ID: id, Scene: 2*n + k, Trace: j.view, Tracer: j.tracer,
		}, joinFrames)
		p.stopAfter, p.stop = joinFrames, cancel
		p.run(ctx)
		cancel()
		jn := join{cold: k == 0, ok: p.err == nil && len(p.samples) >= joinFrames}
		if len(p.samples) > 0 {
			jn.ttff = p.samples[0].at.Sub(p.dialed)
		}
		if !jn.ok {
			j.errs = append(j.errs, fmt.Sprintf("scene %d: %d of %d frames, err=%v", 2*n+k, len(p.samples), joinFrames, p.err))
		}
		j.joins = append(j.joins, jn)
		j.frames += len(p.samples)
	}
}

func runColdJoin(o options, mode passMode) (*result, error) {
	c := coldContent
	if o.quick {
		c = c.quick()
	}
	res := newResult()
	goroutines0 := runtime.NumGoroutine()
	tr := mode.tracer()
	study := trace.GenerateStudy(300, cohortSeed)
	seedOf := func(scene uint32) int64 { return o.seed*1_000_003 + int64(scene/2) }

	var rig *hubRig
	var pairs atomic.Uint32
	// lockstep runs one cycle of every client side by side.
	lockstep := func() []*joiner {
		joiners := make([]*joiner, o.clients)
		var wg sync.WaitGroup
		for p := range joiners {
			joiners[p] = &joiner{rig: rig, pairs: &pairs, tracer: tr, view: study.Traces[p]}
			wg.Add(1)
			go func(j *joiner, id uint32) {
				defer wg.Done()
				j.cycle(id)
			}(joiners[p], uint32(p+1))
		}
		wg.Wait()
		return joiners
	}

	// Set-up: caches flushed, hub listening, and one full cycle per client
	// so every code path the window uses has run once.
	var setupS []float64
	for i := 0; i < o.setups(); i++ {
		if rig != nil {
			rig.stop()
		}
		took, err := timeSetUp(func() (err error) {
			flushCaches()
			if rig, err = startHub(scenesOf(c, seedOf), coldFPS, coldReap, tr); err != nil {
				return err
			}
			lockstep()
			return nil
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took)
	}
	res.values["setup_s"] = quantile(setupS, quiet)

	// The clients cycle in lockstep: each round is one cycle of every
	// client side by side, so a round's wall time, CPU and frames belong
	// to the same joins (see round). A cycle started inside the window runs
	// to its end, so the encode tier sees exactly one miss pass and one hit
	// pass per content; the measured wall time is until the last round ends.
	snap0 := metrics.Default().Snapshot()
	m0 := markProc()
	var rounds []round
	var cold, warm []float64
	frames := 0
	for end := m0.at.Add(o.window()); time.Now().Before(end); {
		r := round{}
		r.slow = hostSlowdown()
		t0, cpu0 := time.Now(), cpuTime()
		joiners := lockstep()
		r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
		var ttff []float64
		for _, j := range joiners {
			r.frames += j.frames
			for _, e := range j.errs {
				res.fail(1, "%s", e)
			}
			for _, jn := range j.joins {
				res.attempted++
				switch {
				case !jn.ok:
				case jn.cold:
					ttff = append(ttff, ms(jn.ttff))
				default:
					warm = append(warm, ms(jn.ttff))
				}
			}
		}
		// The workload's operation is joining a scene never seen before;
		// warm joins are reported per layer and weigh on frames_per_s.
		r.p50, r.p90 = quantile(ttff, 0.50), quantile(ttff, 0.90)
		cold = append(cold, ttff...)
		frames += r.frames
		rounds = append(rounds, r)
	}
	m1 := markProc()
	snap := metrics.Default().Snapshot().Delta(snap0)
	rig.stop()

	if len(cold) == 0 || len(warm) == 0 || frames == 0 {
		return nil, fmt.Errorf("no join completed")
	}
	wall := m1.at.Sub(m0.at).Seconds()
	foldRounds(res, rounds, true)
	res.values["peak_rss_mb"] = peakRSSMB()
	res.latencies = cold
	res.notes["latency_samples"] = float64(len(cold))

	res.values["hub.ttff_cold_ms_p50"] = quantile(cold, 0.50)
	res.values["hub.ttff_warm_ms_p50"] = quantile(warm, 0.50)
	res.values["hub.joins_per_s"] = float64(len(cold)+len(warm)) / wall
	hubCounters(res, snap)
	if r := res.values["blockcache.encode_hit_ratio"]; r != 0.5 {
		res.fail(1, "encode tier hit ratio %.6f, want exactly 0.5 (every content encoded once, hit once)", r)
	}
	procValues(res, m0, m1, frames, goroutines0)
	return res, nil
}
