// Package stream is the end-to-end multi-user streaming engine: it binds
// the content store (encoded cells), the visibility pipeline (ViVo), the
// viewport traces and the core cross-layer planner into frame-level
// evaluations (the Table 1 reproduction) and a time-stepped session
// simulator with buffers, blockage and QoE accounting (the
// research-agenda system). The WLAN models and the frame planner
// themselves live in internal/core.
package stream

import (
	"fmt"

	"volcast/internal/codec"
	"volcast/internal/core"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// Re-exported core types: the stream API is the main entry point for
// callers, the mechanism lives in internal/core.
type (
	// Mode selects the delivery pipeline.
	Mode = core.Mode
	// Network is a WLAN model (PHY + MAC, beams on 802.11ad).
	Network = core.Network
	// NetworkKind selects the WLAN technology.
	NetworkKind = core.NetworkKind
)

// Delivery modes and network kinds (see internal/core).
const (
	ModeVanilla   = core.ModeVanilla
	ModeViVo      = core.ModeViVo
	ModeMulticast = core.ModeMulticast

	NetAC = core.NetAC
	NetAD = core.NetAD
)

// NewAD assembles the calibrated 802.11ad mmWave network.
func NewAD() (*Network, error) { return core.NewAD() }

// NewAC assembles the calibrated 802.11ac network.
func NewAC() (*Network, error) { return core.NewAC() }

// EvalConfig configures an offline frame-rate evaluation.
type EvalConfig struct {
	// Mode is the delivery pipeline.
	Mode Mode
	// Users is the number of concurrent viewers (trace users 0..Users-1).
	Users int
	// Frames is the evaluation window (0 = all stored frames).
	Frames int
	// TargetFPS caps the reported rate (the content rate, 30).
	TargetFPS float64
	// CustomBeams enables multi-lobe beams for multicast groups.
	CustomBeams bool
	// DecodeRate is the client decode capability (zero = paper default).
	DecodeRate codec.DecodeRate
	// DecodeClouds makes the evaluation decode every requested cell per
	// user through the shared content-addressed decode cache (off, the
	// evaluation only accounts bytes — the paper's methodology).
	DecodeClouds bool
}

// Result summarizes an evaluation.
type Result struct {
	// FPS is the mean achievable frame rate over the window.
	FPS float64
	// PerUserBytes is the mean requested bytes per user per frame.
	PerUserBytes float64
	// MulticastShare is the fraction of delivered bytes sent multicast.
	MulticastShare float64
	// PerUserRateMbps is the mean effective per-user delivery rate.
	PerUserRateMbps float64
}

// Evaluator evaluates frame rates for a set of users on one network.
type Evaluator struct {
	study *trace.Study
	path  framePath
}

// NewEvaluator wires an evaluator over the store, reporting to the
// process-wide registry and tracer.
func NewEvaluator(store *vivo.Store, study *trace.Study, net *Network) *Evaluator {
	return &Evaluator{study: study, path: newFramePath(store, net, metrics.Default(), obs.Default())}
}

// EvalFPS runs the offline evaluation: for each frame in the window it
// computes each user's request, plans the delivery schedule (unicast or
// multicast) via the core planner, and converts airtime into the
// achievable frame rate, bounded by the client decode capability. The
// reported FPS is the mean over the window, capped at TargetFPS — the
// measurement methodology of the paper's Table 1.
func (e *Evaluator) EvalFPS(cfg EvalConfig) (Result, error) {
	if cfg.Users < 1 {
		return Result{}, fmt.Errorf("stream: need at least 1 user")
	}
	if cfg.Users > e.study.Users() {
		return Result{}, fmt.Errorf("stream: %d users requested, %d traces", cfg.Users, e.study.Users())
	}
	if cfg.TargetFPS <= 0 {
		cfg.TargetFPS = 30
	}
	if cfg.DecodeRate.PointsPerSecond <= 0 {
		cfg.DecodeRate = codec.DefaultDecodeRate()
	}
	store := e.path.store
	frames := cfg.Frames
	if frames <= 0 || frames > store.NumFrames() {
		frames = store.NumFrames()
	}

	var sumFPS, sumBytes, sumRate float64
	var split byteSplit
	levels := make([]int, cfg.Users) // everyone at full density
	for f := 0; f < frames; f++ {
		poses := make([]geom.Pose, cfg.Users)
		for u := range poses {
			poses[u] = e.study.Traces[u].PoseAt(f)
		}
		fr, err := e.path.step(frameSpec{
			seq: f, mode: cfg.Mode, poses: poses, views: poses, levels: levels,
			customBeams: cfg.CustomBeams, decode: cfg.DecodeClouds,
		})
		if err != nil {
			return Result{}, err
		}
		points := store.PointsOracle(f)
		maxPoints := 0
		for _, r := range fr.reqs {
			maxPoints = max(maxPoints, r.Points(points))
		}
		fps := fr.plan.AchievableFPS(cfg.TargetFPS)
		if d := cfg.DecodeRate.MaxFPS(maxPoints, cfg.TargetFPS); d < fps {
			fps = d
		}
		sumFPS += fps

		for _, u := range fr.plan.Users {
			sumBytes += float64(u.RequestBytes)
			sumRate += u.UnicastRateMbps
		}
		split.add(fr.plan, 1)
	}
	n := float64(frames)
	return Result{
		FPS:             sumFPS / n,
		PerUserBytes:    sumBytes / (n * float64(cfg.Users)),
		PerUserRateMbps: sumRate / (n * float64(cfg.Users)),
		MulticastShare:  split.share(),
	}, nil
}
