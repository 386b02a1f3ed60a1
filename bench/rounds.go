package main

import "time"

// round is one short stretch of a measured window, measured by itself:
// a half-second slice of an open loop, one lockstep join cycle, one
// simulator session.
//
// The box this runs on is a few cores of a shared host. A fixed spin loop
// on it, alone, takes 1× to 3× its best CPU time, in episodes of one to
// ten seconds that cover anything from a fifth to most of a 20 s window.
// A whole-window mean, or a percentile over every sample of the window,
// reads how much of the window the neighbours took: between two runs of
// one binary it moved 20–50 %. Interference only ever adds time, so each
// timing is computed per round and the run reports the quartile of the
// rounds on the metric's better side — the value the program reaches
// whenever the host lets it, which stays put until three quarters of the
// rounds are spoiled. What a viewer sees differs from round to round, but
// the cohort is pinned, so the quartile falls on the same stretch of the
// same viewers' path in every run. Slowdowns that outlast a run are the
// speed probe's part (see hostSlowdown).
type round struct {
	wall, cpu time.Duration
	frames    int
	// p50 and p90 are the round's own operation latencies in ms.
	p50, p90 float64
	// slow is the speed probe's reading next to the round (see
	// hostSlowdown).
	slow float64
}

// quiet is the share of rounds at or better than the reported value.
const quiet = 0.25

// foldRounds fills the timing metrics from per-round values, each stated
// at reference speed: divided by the median of the probe readings of the
// round and its two neighbours on either side (a phase of the host lasts
// seconds to minutes, a single 5 ms probe can be hit by less). An open
// loop's frames_per_s is not among them: its rate is set by the schedule,
// not by speed, and is counted over the whole window, where a shortfall
// of any length shows.
func foldRounds(res *result, rounds []round, closedLoop bool) {
	var fps, cpu, p50, p90, slow []float64
	for i, r := range rounds {
		if r.frames == 0 {
			continue
		}
		var near []float64
		for _, n := range rounds[max(0, i-2):min(len(rounds), i+3)] {
			near = append(near, n.slow)
		}
		f := median(near)
		fps = append(fps, float64(r.frames)/r.wall.Seconds()*f)
		cpu = append(cpu, ms(r.cpu)/float64(r.frames)/f)
		p50 = append(p50, r.p50/f)
		p90 = append(p90, r.p90/f)
		slow = append(slow, f)
	}
	if closedLoop {
		res.values["frames_per_s"] = quantile(fps, 1-quiet)
	}
	res.values["cpu_ms_per_frame"] = quantile(cpu, quiet)
	res.values["latency_ms_p50"] = quantile(p50, quiet)
	res.values["latency_ms_p90"] = quantile(p90, quiet)
	res.rounds = rounds
	res.notes["rounds"] = float64(len(cpu))
	res.notes["host_slowdown_median"] = median(slow)
}
