package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// stageWeights says how often each ladder stage runs per delivered
// user-frame on a workload's own frame path; ladder_coverage_frac weighs
// the ladder's per-stage self time by it. The ladder's cull and (on the
// sim) plan stages serve ladderUsers viewers per pass; every other stage
// handles one viewer's frame.
var stageWeights = map[string]map[string]float64{
	// Steady state: the store is built once, so generate/encode/cache are
	// set-up cost, not frame cost.
	"push_dense":  {"cull": 1.0 / ladderUsers, "plan": 1, "serialize": 1, "send": 1, "read": 1, "decode": 1},
	"push_fanout": {"cull": 1.0 / ladderUsers, "plan": 1, "serialize": 1, "send": 1, "read": 1},
	// One cycle delivers 2×joinFrames frames and builds the scene's
	// content twice: every content frame is generated twice, encoded once
	// (cold) and passes the encode tier's miss and hit paths once each
	// (the cache stage holds one of each per frame).
	"cold_join": {
		"generate": 2 * coldPerDelivered, "encode": coldPerDelivered, "cache": coldPerDelivered,
		"cull": 1.0 / ladderUsers, "plan": 1, "serialize": 1, "send": 1, "read": 1,
	},
	// The simulator culls and plans; nothing is serialized or sent.
	"sim_multicast": {"cull": 1.0 / ladderUsers, "plan": 1.0 / ladderUsers, "plan>predict": 1.0 / ladderUsers},
}

// coldPerDelivered is content frames built per frame delivered in one
// cold_join cycle.
var coldPerDelivered = float64(coldContent.frames) / (2 * joinFrames)

// runTraced is the --trace 1 pass. It runs the workload twice on a share
// of the window — plain, for the per-layer numbers only a live run has
// (hub and transport counters, cache ratios, runtime costs), then with an
// obs.Tracer attached, for the tracer's overhead — and then walks the
// layer ladder twice, span recording off and on. Spans come from this
// directory's files only; they are written at exit as trace_event JSON
// and folded into the stage-decomposition table.
func runTraced(w workload, o options) (*result, error) {
	live := o
	live.single = true
	live.seconds = o.seconds * 0.3
	if live.seconds < 1 {
		live.seconds = 1
	}
	res, err := w.run(live, passPlain)
	if err != nil {
		return nil, err
	}
	withTracer, err := w.run(live, passTracer)
	if err != nil {
		return nil, err
	}
	res.attempted += withTracer.attempted
	res.failed += withTracer.failed
	res.problems = append(res.problems, withTracer.problems...)
	res.values["obs.tracer_overhead_frac"] = withTracer.values["cpu_ms_per_frame"]/res.values["cpu_ms_per_frame"] - 1

	frames := 6
	c := w.content
	if o.quick {
		frames = 2
		c = c.quick()
	}
	l, err := newLadder(c, o.seed, frames, w.sim)
	if err != nil {
		return nil, err
	}
	defer l.close()

	// First the pass that keeps per-call samples and runs the round-trip
	// checks; it also pays every first-use cost. Then the same work again
	// with span recording off and on: their ratio is the recorder's cost.
	if err := l.walk(newRecorder(false), true); err != nil {
		return nil, err
	}
	// Off, on, on, off: any drift across the passes (heap growth, cache
	// warmth) weighs on both sides alike.
	var wall [2]time.Duration
	var on *recorder
	for _, recording := range []bool{false, true, true, false} {
		rec := newRecorder(recording)
		t0 := time.Now()
		if err := l.walk(rec, false); err != nil {
			return nil, err
		}
		if recording {
			wall[1] += time.Since(t0)
			on = rec
		} else {
			wall[0] += time.Since(t0)
		}
	}
	res.values["bench.trace_overhead_frac"] = wall[1].Seconds()/wall[0].Seconds() - 1

	if err := l.micro(res.values, o.quick); err != nil {
		return nil, err
	}
	if err := l.hubProbes(res.values, o.quick); err != nil {
		return nil, err
	}
	// Each ladder frame is one checked operation: its round trips either
	// all held or each violation counts.
	res.attempted += l.frames
	for _, p := range l.problems {
		res.fail(1, "ladder: %s", p)
	}

	// The ladder decodes every cell; live, the decode tier's hits skip
	// that share of the decodes and pay the tier's hit path instead.
	rows := decompose(on.spans)
	hit := res.values["blockcache.decode_hit_ratio"]
	var explained float64
	for _, r := range rows {
		weight := stageWeights[w.name][r.name]
		if r.name == "decode" {
			weight *= 1 - hit
		}
		explained += weight * r.selfMS / float64(l.frames)
	}
	res.values["bench.ladder_coverage_frac"] = explained / res.values["cpu_ms_per_frame"]
	printDecomposition(os.Stderr, w.name, rows, l.frames)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-spans.json", w.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeTraceEvents(f, "volbench ladder: "+w.name, on.spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	res.notes["spans"] = float64(len(on.spans))
	return res, nil
}
