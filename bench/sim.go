package main

import (
	"fmt"
	"runtime"
	"time"

	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/pointcloud"
	"volcast/internal/stream"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// The researcher's case, a closed loop of one job at a time: the paper's
// full proposal (viewport-similarity multicast, custom beams, prediction,
// fading) as stream.Session runs it — predict, vivo visibility, the core
// planner, multicast grouping, beam design, phy, mac and abr, none of
// which the hub imports.
var simContent = content{frames: 10, points: 60_000, performers: 3, strides: []int{1, 2, 3, 4}}

const (
	simUsers   = 4
	simSeconds = 1.0
	// simSeeds is how many distinct fading seeds a run cycles through. The
	// first pass over them gives the QoE figures; every later session
	// repeats a seed and must reproduce its QoE exactly.
	simSeeds = 6
)

type simWorld struct {
	stores map[pointcloud.Quality]*vivo.Store
	study  *trace.Study
}

func buildSimWorld(c content, seed int64, frames int) (*simWorld, error) {
	flushCaches()
	st, err := c.build(seed, nil)
	if err != nil {
		return nil, err
	}
	return &simWorld{
		stores: map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: st},
		study:  trace.GenerateStudy(frames, cohortSeed),
	}, nil
}

// stepBounds are the buckets, 1 % apart from 0.05 ms to 10 s, that the
// benchmark gives the session's own session.step_ms histogram before the
// session runs (a registry fixes a histogram's bounds at its first
// lookup), so that the steps' percentiles can be read to three digits.
var stepBounds = func() []float64 {
	var b []float64
	for v := 0.05; v < 10_000; v *= 1.01 {
		b = append(b, v)
	}
	return b
}()

// session runs one simulated session and returns its QoE and, as a round,
// what it cost: one frame step for all users is the operation whose
// latency the round carries. Each session gets a registry of its own,
// which also keeps its instruments out of the process default that the
// hub workloads read.
func (w *simWorld) session(seed int64, seconds float64, tr *obs.Tracer) (stream.QoE, round, error) {
	net, err := stream.NewAD()
	if err != nil {
		return stream.QoE{}, round{}, err
	}
	reg := metrics.NewRegistry()
	steps := reg.Histogram("session.step_ms", stepBounds)
	t0, cpu0 := time.Now(), cpuTime()
	s, err := stream.NewSession(stream.SessionConfig{
		Users: simUsers, Seconds: seconds, Mode: stream.ModeMulticast,
		CustomBeams: true, Predictive: true, Fading: true, Seed: seed,
		StartQuality: pointcloud.QualityLow, Metrics: reg, Trace: tr,
	}, w.stores, w.study, net)
	if err != nil {
		return stream.QoE{}, round{}, err
	}
	q, err := s.Run()
	r := round{
		wall: time.Since(t0), cpu: cpuTime() - cpu0, frames: int(steps.Count()) * simUsers,
		p50: steps.Quantile(0.50), p90: steps.Quantile(0.90),
	}
	if err == nil && r.frames == 0 {
		err = fmt.Errorf("the session observed no session.step_ms")
	}
	return q, r, err
}

func runSim(o options, mode passMode) (*result, error) {
	c, seconds, seeds := simContent, simSeconds, simSeeds
	if o.single {
		seeds = 3 // the traced pass has a third of the window
	}
	if o.quick {
		c, seconds, seeds = c.quick(), 0.2, 1
	}
	steps := int(seconds * 30)
	res := newResult()
	goroutines0 := runtime.NumGoroutine()
	tr := mode.tracer()

	// Set-up: content generated and encoded, cohort generated, and one
	// short session so lazy initialisation is done.
	var world *simWorld
	var setupS []float64
	for i := 0; i < o.setups(); i++ {
		took, err := timeSetUp(func() (err error) {
			if world, err = buildSimWorld(c, o.seed, steps+60); err != nil {
				return err
			}
			_, _, err = world.session(o.seed, 0.2, tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took)
	}
	res.values["setup_s"] = quantile(setupS, quiet)

	m0 := markProc()
	first := make([]stream.QoE, 0, seeds)
	var rounds []round
	var runMS []float64
	for n := 0; n < 2*seeds || time.Since(m0.at) < o.window(); n++ {
		k := n % seeds
		slow := hostSlowdown()
		q, r, err := world.session(o.seed+int64(k), seconds, tr)
		r.slow = slow
		res.attempted++
		switch {
		case err != nil:
			res.fail(1, "session seed %d: %v", o.seed+int64(k), err)
		case n < seeds:
			first = append(first, q)
		case q != first[k]:
			res.fail(1, "session seed %d: QoE %+v on repeat, %+v first", o.seed+int64(k), q, first[k])
		}
		rounds = append(rounds, r)
		runMS = append(runMS, ms(r.wall))
		res.latencies = append(res.latencies, r.p50)
	}
	m1 := markProc()
	if len(first) == 0 {
		return nil, fmt.Errorf("no session completed")
	}

	frames := res.attempted * steps * simUsers
	foldRounds(res, rounds, true)
	res.values["peak_rss_mb"] = peakRSSMB()
	res.notes["latency_samples"] = float64(len(rounds) * steps)

	for _, q := range first {
		res.values["stream.sim_fps"] += q.AvgFPS / float64(len(first))
		res.values["stream.sim_multicast_share"] += q.MulticastShare / float64(len(first))
		res.values["stream.qoe_stalls"] += float64(q.Stalls)
		res.values["stream.qoe_regroups"] += float64(q.Regroups)
	}
	res.values["stream.session_run_ms"] = median(runMS)
	res.values["stream.allocs_per_frame"] = float64(m1.mallocs-m0.mallocs) / float64(frames)
	res.values["stream.alloc_kb_per_frame"] = float64(m1.bytes-m0.bytes) / 1024 / float64(frames)
	procValues(res, m0, m1, frames, goroutines0)
	return res, nil
}
