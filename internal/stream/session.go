package stream

import (
	"fmt"
	"time"

	"volcast/internal/abr"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/phy"
	"volcast/internal/pointcloud"
	"volcast/internal/predict"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// SessionConfig configures a time-stepped multi-user streaming session.
type SessionConfig struct {
	// Users is the number of concurrent viewers.
	Users int
	// Seconds is the session length.
	Seconds float64
	// Mode selects the delivery pipeline.
	Mode Mode
	// CustomBeams enables multi-lobe multicast beams.
	CustomBeams bool
	// Predictive enables joint viewport prediction, blockage forecasting
	// and the cross-layer controller's reaction (prefetch / beam switch).
	Predictive bool
	// StartQuality names the entry of NewSession's stores map the session
	// streams from; every user starts at that store's full density.
	StartQuality pointcloud.Quality
	// AdaptQuality lets the cross-layer controller move each user along
	// the rungs of the store's density ladder, once per second.
	AdaptQuality bool
	// DecodeClouds makes the session actually decode every delivered cell
	// per user each step (the client render path), through the shared
	// content-addressed decode cache: overlapping viewports and repeated
	// frames decode each distinct block once instead of once per user.
	DecodeClouds bool
	// Fading adds seeded small-scale RSS fading per link (σ≈1.5 dB),
	// exercising the rate-adaptation loop with realistic fluctuation.
	Fading bool
	// Seed drives the fading processes (0 → 1).
	Seed int64
	// BufferSeconds is the client playback buffer capacity.
	BufferSeconds float64
	// Metrics receives per-step stage timings and counters (nil → the
	// process-wide default registry).
	Metrics *metrics.Registry
	// Trace receives per-frame, per-user, per-stage spans with deadline
	// attribution (nil → the process-wide tracer, which is itself nil
	// unless tracing was enabled).
	Trace *obs.Tracer
	// LinkCapMbps optionally caps each user's delivered link rate
	// (link emulation: a throttled or starved client). Non-nil len must
	// equal Users; 0 leaves a user uncapped. The cap applies to the
	// per-user delivery accounting and airtime attribution, not to the
	// shared MAC schedule.
	LinkCapMbps []float64
}

// QoE aggregates the session's quality-of-experience metrics.
type QoE struct {
	// AvgFPS is the mean delivered frame rate across users.
	AvgFPS float64
	// Stalls is the total rebuffering events across users.
	Stalls int
	// StallSeconds is the total stalled time across users.
	StallSeconds float64
	// AvgQuality is the mean degrade level played, in steps down the
	// store's ladder from each cell's culled stride: 0 is full density,
	// tier.MaxDegrade the coarsest. A run without AdaptQuality reports 0.
	AvgQuality float64
	// QualitySwitches counts level changes across users.
	QualitySwitches int
	// BeamSwitches counts proactive reflection-path switches.
	BeamSwitches int
	// Regroups is always 0 until grouping becomes part of the density
	// decision (DESIGN.md §19); the planner re-forms groups every frame.
	Regroups int
	// MulticastShare is the multicast fraction of delivered bytes.
	MulticastShare float64
}

// Session is a running multi-user streaming session over the simulated
// WLAN. Construct with NewSession and advance with Run.
type Session struct {
	cfg     SessionConfig
	path    framePath
	study   *trace.Study
	net     *Network
	joint   *predict.Joint
	ctrl    *abr.Controller
	buffers []*abr.Buffer
	bwPred  []*abr.CrossLayer
	// level is each user's degrade level along the store's ladder, the
	// unit the hub moves its subscribers in by the same Adapt.
	level  []int
	fading []*phy.Fading
}

// NewSession validates the configuration and assembles a session over the
// store filed under cfg.StartQuality; study must provide at least
// cfg.Users traces. Quality moves along that one store's rungs, so a map
// with any other entry is rejected. The map shape is a leftover of the
// store-per-quality ladder that the benchmark compiles against: it can
// only become a plain *vivo.Store in a benchmark PR.
func NewSession(cfg SessionConfig, stores map[pointcloud.Quality]*vivo.Store, study *trace.Study, net *Network) (*Session, error) {
	if cfg.Users < 1 {
		return nil, fmt.Errorf("stream: need at least one user")
	}
	if study.Users() < cfg.Users {
		return nil, fmt.Errorf("stream: %d traces for %d users", study.Users(), cfg.Users)
	}
	store, ok := stores[cfg.StartQuality]
	if !ok || len(stores) != 1 {
		return nil, fmt.Errorf("stream: %d content stores, want exactly the one at start quality %v", len(stores), cfg.StartQuality)
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 5
	}
	if cfg.BufferSeconds <= 0 {
		cfg.BufferSeconds = 1.0
	}
	if cfg.LinkCapMbps != nil && len(cfg.LinkCapMbps) != cfg.Users {
		return nil, fmt.Errorf("stream: %d link caps for %d users", len(cfg.LinkCapMbps), cfg.Users)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	tr := cfg.Trace
	if tr == nil {
		tr = obs.Default()
	}
	s := &Session{
		cfg:   cfg,
		path:  newFramePath(store, net, reg, tr),
		study: study,
		net:   net,
		ctrl:  abr.NewController(abr.DefaultConfig()),
		level: make([]int, cfg.Users),
	}
	preds := make([]predict.Predictor, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		lin, err := predict.NewLinear(30, 20)
		if err != nil {
			return nil, err
		}
		preds[u] = lin
		s.buffers = append(s.buffers, abr.NewBuffer(cfg.BufferSeconds))
		s.bwPred = append(s.bwPred, abr.NewCrossLayer(abr.NewEWMA(0.3)))
	}
	if cfg.Fading {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		for u := 0; u < cfg.Users; u++ {
			s.fading = append(s.fading, phy.NewFading(seed+int64(u)*7919))
		}
	}
	s.joint = predict.NewJoint(preds, geom.V(0, 1.2, 0))
	return s, nil
}

// Run advances the whole session and returns its QoE summary.
func (s *Session) Run() (QoE, error) {
	const dt = 1.0 / 30
	const horizon = 0.3
	steps := int(s.cfg.Seconds * 30)
	reg, tr := s.path.reg, s.path.tr
	var q QoE
	var split byteSplit
	var fpsSum float64
	// played is the content delivered since the last adaptation pass, in
	// seconds: what a player that shows frames as they arrive has in place
	// of a buffer level.
	var played float64

	for step := 0; step < steps; step++ {
		stepStart := time.Now()
		poses := make([]geom.Pose, s.cfg.Users)
		for u := range poses {
			poses[u] = s.study.Traces[u].PoseAt(step)
		}
		if err := s.joint.Observe(poses); err != nil {
			return q, err
		}

		// Cross-layer forecasting: predicted poses → predicted blockages.
		var futureBlocked map[int]bool
		if s.cfg.Predictive && s.net.Kind == NetAD {
			predSpan := tr.Begin(step, obs.PipelineUser, obs.StagePredict)
			predPoses := s.joint.PredictAll(horizon)
			futureBlocked = map[int]bool{}
			for _, b := range predict.ForecastBlockages(s.net.Radio.Array.Pos, predPoses) {
				futureBlocked[b.User] = true
			}
			predSpan.End()
		}
		views := poses
		if s.cfg.Predictive && s.cfg.Mode != ModeVanilla {
			// Fetch for the predicted viewport (hides latency).
			views = make([]geom.Pose, s.cfg.Users)
			for u := range views {
				views[u] = s.joint.Users[u].Predict(horizon)
			}
		}
		var rssOffsets []float64
		if s.fading != nil {
			rssOffsets = make([]float64, s.cfg.Users)
			for u := range s.fading {
				rssOffsets[u] = s.fading[u].Step(dt)
			}
		}

		// Cross-layer reaction to predicted blockage (sequential: the
		// QoE counters are shared state). A user forecast as blocked has a
		// reflection to switch to, so the controller's answer is always a
		// beam switch: steer a dedicated beam along the strongest path
		// instead of the blocked LOS sector, on the link the step has just
		// prepared toward poses[u]; the channel still holds the previous
		// frame's bodies.
		beamSwitched := map[int]bool{}
		steer := func(reqs []vivo.Request) map[int]float64 {
			if len(futureBlocked) == 0 {
				return nil
			}
			floors := map[int]float64{}
			for u := range reqs {
				if !futureBlocked[u] {
					continue
				}
				l := s.path.planner.Link(u)
				blocked := l.BlockedBy(s.net.Radio.Channel.Bodies)
				if dir, ok := l.BestPathDir(blocked); ok {
					rss := l.RSS(s.net.Radio.Array.SteerTo(dir), blocked)
					if r2 := s.net.MAC.EffectiveRate(phy.RateForRSS(phy.AD_SC_MCS, rss)); r2 > 0 {
						floors[u] = r2
					}
					q.BeamSwitches++
					beamSwitched[u] = true
				}
			}
			return floors
		}

		fr, err := s.path.step(frameSpec{
			seq: step, mode: s.cfg.Mode, poses: poses, views: views, levels: s.level,
			customBeams: s.cfg.CustomBeams, decode: s.cfg.DecodeClouds,
			rssOffsets: rssOffsets, steer: steer, rateCaps: s.cfg.LinkCapMbps,
		})
		if err != nil {
			return q, err
		}
		plan := fr.plan

		// The schedule fits the step's airtime budget slack times over;
		// a user is delivered at most the one frame there is.
		slack := 1.0
		if plan.PlanTime > 0 {
			slack = plan.Airtime * dt / plan.PlanTime
		}
		frameFrac := min(slack, 1)
		fpsSum += frameFrac * 30
		played += frameFrac * dt

		// Buffers: each user receives frameFrac frames of playback.
		presentSpan := tr.Begin(step, obs.PipelineUser, obs.StagePresent)
		for u := 0; u < s.cfg.Users; u++ {
			s.buffers[u].Add(frameFrac * dt)
			s.buffers[u].Drain(dt)
			// Observe the goodput the schedule delivered the request at:
			// its bytes over its share of the step, not over the whole
			// step, or no sample could exceed the demand it measures.
			got := slack * float64(plan.Users[u].RequestBytes) * 8 / dt / 1e6
			s.bwPred[u].Observe(abr.Sample{T: float64(step) * dt, Mbps: got})
			hint := abr.PHYHint{RateCeilingMbps: plan.Users[u].UnicastRateMbps}
			if futureBlocked[u] && !beamSwitched[u] {
				hint.BlockageExpected = true
				hint.BlockageLossFrac = 0.35
			}
			s.bwPred[u].ObservePHY(hint)
			q.AvgQuality += float64(s.level[u])
		}
		split.add(plan, frameFrac)

		// Rate adaptation once per second.
		if s.cfg.AdaptQuality && step%30 == 29 {
			users := make([]abr.User, s.cfg.Users)
			for u := range users {
				users[u] = abr.User{Culled: fr.culled[u], Level: s.level[u], PredictedMbps: s.bwPred[u].Predict(), PlannedBytes: plan.Users[u].RequestBytes, Played: played}
			}
			var switches int
			s.level, switches, _ = s.ctrl.Adapt(s.path.store, fr.fi, 30, users)
			q.QualitySwitches += switches
			played = 0
		}
		presentSpan.End()
		reg.Counter("session.steps").Inc()
		reg.Histogram("session.step_ms", nil).
			Observe(float64(time.Since(stepStart)) / float64(time.Millisecond))
	}

	for _, b := range s.buffers {
		q.Stalls += b.Stalls
		q.StallSeconds += b.StallTime
	}
	if steps > 0 {
		q.AvgFPS = fpsSum / float64(steps)
		q.AvgQuality /= float64(steps * s.cfg.Users)
	}
	q.MulticastShare = split.share()
	return q, nil
}
