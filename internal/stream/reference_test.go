package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"volcast/internal/abr"
	"volcast/internal/blockcache"
	"volcast/internal/codec"
	"volcast/internal/core"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/multicast"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/phy"
	"volcast/internal/pointcloud"
	"volcast/internal/predict"
	"volcast/internal/tier"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// The two frame loops as they stood before they were folded onto
// framePath.step, as the oracle for the differential tests below: the
// session read a store and a visibility pipeline per quality rung
// (stores/visByQ, one entry in every real run) and handed the planner a
// per-user content source, and the offline evaluation wrote out its own
// cull, decode, plan, airtime attribution and multicast byte split.
//
// Two things differ from the parent's text. core.FrameInput.PerUser is
// gone, so refRun passes the planner the store and frame every user
// shares — which is what a PerUser slice of equal entries resolved to.
// And refRun leaves out its once-per-second quality pass (qualityStep,
// adaptQualityMPC, UseMPC): over the one-entry map it could not move
// anyone, so TestRunMatchesReference runs with AdaptQuality off.
//
// The level-based adaptation pass that replaced it has an oracle of its
// own further down: refDegrade, refAdaptQuality and refRunAdapting are
// degrade, Session.adaptQuality and Session.Run as they stood while the
// pass still lived in this package. TestAdaptMatchesReference runs whole
// adapting sessions against them and TestAdaptDecisionMatchesReference
// single passes over seeded inputs.

// refFrameContent is the deleted core.FrameContent: one user's content
// source.
type refFrameContent struct {
	Store *vivo.Store
	Frame int
}

type refSession struct {
	cfg     SessionConfig
	stores  map[pointcloud.Quality]*vivo.Store
	visByQ  map[pointcloud.Quality]*vivo.Visibility
	study   *trace.Study
	net     *Network
	planner *core.Planner
	decoder codec.Decoder
	joint   *predict.Joint
	ctrl    *abr.Controller
	buffers []*abr.Buffer
	bwPred  []*abr.CrossLayer
	quality []pointcloud.Quality
	fading  []*phy.Fading
	reg     *metrics.Registry
	tr      *obs.Tracer
}

func newRefSession(t testing.TB, cfg SessionConfig, stores map[pointcloud.Quality]*vivo.Store, study *trace.Study, net *Network) *refSession {
	t.Helper()
	if cfg.Seconds <= 0 {
		cfg.Seconds = 5
	}
	if cfg.BufferSeconds <= 0 {
		cfg.BufferSeconds = 1.0
	}
	s := &refSession{
		cfg:     cfg,
		stores:  stores,
		visByQ:  map[pointcloud.Quality]*vivo.Visibility{},
		study:   study,
		net:     net,
		planner: core.NewPlanner(net),
		decoder: codec.Decoder{Cache: blockcache.Cells()},
		ctrl:    abr.NewController(abr.DefaultConfig()),
		reg:     cfg.Metrics,
		tr:      cfg.Trace,
	}
	s.planner.Metrics = s.reg
	s.planner.Trace = s.tr
	for q, st := range stores {
		s.visByQ[q] = vivo.New(st.Grid(), vivo.DefaultParams())
	}
	preds := make([]predict.Predictor, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		lin, err := predict.NewLinear(30, 20)
		if err != nil {
			t.Fatal(err)
		}
		preds[u] = lin
		s.buffers = append(s.buffers, abr.NewBuffer(cfg.BufferSeconds))
		s.bwPred = append(s.bwPred, abr.NewCrossLayer(abr.NewEWMA(0.3)))
		s.quality = append(s.quality, cfg.StartQuality)
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
	return s
}

// refRun is the parent's Session.Run.
func (s *refSession) refRun() (QoE, error) {
	const dt = 1.0 / 30
	steps := int(s.cfg.Seconds * 30)
	var q QoE
	var mcBytes, totBytes float64
	var fpsSum float64
	horizon := 0.3

	for step := 0; step < steps; step++ {
		stepStart := time.Now()
		poses := make([]geom.Pose, s.cfg.Users)
		positions := make([]geom.Vec3, s.cfg.Users)
		for u := 0; u < s.cfg.Users; u++ {
			poses[u] = s.study.Traces[u].PoseAt(step)
			positions[u] = poses[u].Pos
		}
		if err := s.joint.Observe(poses); err != nil {
			return q, err
		}
		bodies := make([]phy.Body, s.cfg.Users)
		for u := range positions {
			bodies[u] = phy.DefaultBody(positions[u])
		}

		// Cross-layer forecasting: predicted poses → predicted blockages.
		var futureBlocked map[int]bool
		if s.cfg.Predictive && s.net.Kind == NetAD {
			predSpan := s.tr.Begin(step, obs.PipelineUser, obs.StagePredict)
			predPoses := s.joint.PredictAll(horizon)
			futureBlocked = map[int]bool{}
			for _, b := range predict.ForecastBlockages(s.net.Radio.Array.Pos, predPoses) {
				futureBlocked[b.User] = true
			}
			predSpan.End()
		}

		// Per-user requests at their current quality. The visibility
		// pipeline only reads shared state and each user's predictor is
		// private, so the culling fans out on the par pool by user index;
		// the stateful control reactions below stay sequential.
		reqs := make([]vivo.Request, s.cfg.Users)
		perUser := make([]refFrameContent, s.cfg.Users)
		visDone := s.reg.Histogram("session.visibility", nil).TimeMillis()
		if err := par.ForEach(context.Background(), s.cfg.Users, func(u int) error {
			defer s.tr.Begin(step, u, obs.StageCull).End()
			st := s.stores[s.quality[u]]
			vis := s.visByQ[s.quality[u]]
			fi := step % st.NumFrames()
			perUser[u] = refFrameContent{Store: st, Frame: fi}
			occ := st.Frame(fi).Occupied
			if s.cfg.Mode == ModeVanilla {
				reqs[u] = vivo.VanillaRequest(occ)
			} else {
				pose := poses[u]
				if s.cfg.Predictive {
					// Fetch for the predicted viewport (hides latency).
					pose = s.joint.Users[u].Predict(horizon)
				}
				reqs[u] = vis.Request(occ, pose)
			}
			return nil
		}); err != nil {
			return q, err
		}
		visDone()

		// Cross-layer reaction to predicted blockage (sequential: the
		// controller, buffers and QoE counters are shared state).
		beamSwitched := map[int]bool{}
		rateOverride := map[int]float64{}
		for u := 0; u < s.cfg.Users; u++ {
			if s.cfg.Predictive && futureBlocked[u] && s.net.Kind == NetAD {
				st := s.stores[s.quality[u]]
				fi := step % st.NumFrames()
				bytes := reqs[u].Bytes(st.SizeOracle(fi))
				st8 := abr.State{
					PredictedMbps:       s.bwPred[u].Predict(),
					DemandMbps:          codec.BitrateMbps(float64(bytes), 30),
					BufferLevel:         s.buffers[u].Level(),
					BufferCapacity:      s.buffers[u].Capacity,
					BlockageExpected:    true,
					ReflectionAvailable: true,
				}
				switch s.ctrl.Decide(st8) {
				case abr.ActionBeamSwitch:
					// Steer a dedicated beam along the strongest path
					// (reflection) instead of the blocked LOS sector.
					if dir, ok := s.net.Radio.BestPathDir(positions[u]); ok {
						w := s.net.Radio.Array.SteerTo(dir)
						rss := s.net.Radio.RSS(w, positions[u])
						if r2 := s.net.MAC.EffectiveRate(phy.RateForRSS(phy.AD_SC_MCS, rss)); r2 > 0 {
							rateOverride[u] = r2
						}
						q.BeamSwitches++
						beamSwitched[u] = true
					}
				case abr.ActionPrefetch:
					// Pull future frames while the link is still good.
					s.buffers[u].Add(0.2)
				}
			}
		}

		var rssOffsets []float64
		if len(s.fading) == s.cfg.Users {
			rssOffsets = make([]float64, s.cfg.Users)
			for u := range s.fading {
				rssOffsets[u] = s.fading[u].Step(dt)
			}
		}
		plan, err := s.planner.Plan(s.cfg.Mode, core.FrameInput{
			Store:        perUser[0].Store,
			Frame:        perUser[0].Frame,
			Requests:     reqs,
			Positions:    positions,
			Bodies:       bodies,
			CustomBeams:  s.cfg.CustomBeams,
			RSSOffsetsDB: rssOffsets,
			Seq:          step,
		})
		if err != nil {
			return q, err
		}
		// Proactive beam switches replace the swept sector rate when the
		// steered reflection beam is stronger.
		for u, r2 := range rateOverride {
			if r2 > plan.Users[u].UnicastRateMbps {
				plan.Users[u].UnicastRateMbps = r2
			}
		}
		// Link emulation: cap throttled users' delivered rates.
		for u, lim := range s.cfg.LinkCapMbps {
			if lim > 0 && plan.Users[u].UnicastRateMbps > lim {
				plan.Users[u].UnicastRateMbps = lim
			}
		}
		// Attribute each user's modeled MAC airtime for this frame: the
		// time the user's requested bytes occupy the medium at their
		// delivered rate. A dead link is clamped to one second so the
		// attribution stays finite (and unmistakably a miss).
		for u := 0; u < s.cfg.Users; u++ {
			bytes := float64(plan.Users[u].RequestBytes)
			if bytes <= 0 {
				continue
			}
			air := time.Second
			if rate := plan.Users[u].UnicastRateMbps; rate > 0 {
				if d := time.Duration(bytes * 8 / (rate * 1e6) * float64(time.Second)); d < air {
					air = d
				}
			}
			s.tr.RecordModeled(step, u, obs.StageAirtime, air)
		}

		// This step's deliverable fraction of a frame per user.
		frameFrac := 1.0
		if plan.PlanTime > 0 {
			frameFrac = plan.Airtime * dt / plan.PlanTime
			if frameFrac > 1 {
				frameFrac = 1
			}
		}
		fpsSum += frameFrac * 30

		// Client render path: decode each user's delivered cells through
		// the shared decode cache. Users fan out on the par pool; the
		// cache's singleflight dedup guarantees each distinct block is
		// decoded once per frame no matter how many viewports overlap.
		if s.cfg.DecodeClouds {
			decodeDone := s.reg.Histogram("session.decode", nil).TimeMillis()
			perUserPts := make([]int64, s.cfg.Users)
			if err := par.ForEach(context.Background(), s.cfg.Users, func(u int) error {
				defer s.tr.Begin(step, u, obs.StageDecode).End()
				st, fi := perUser[u].Store, perUser[u].Frame
				for _, cr := range reqs[u].Cells {
					blk := st.Block(fi, cr.ID, cr.Stride)
					if blk == nil {
						continue
					}
					dc, err := s.decoder.Decode(blk.Data)
					if err != nil {
						return err
					}
					perUserPts[u] += int64(len(dc.Points))
				}
				return nil
			}); err != nil {
				return q, err
			}
			decodeDone()
			var pts int64
			for _, p := range perUserPts {
				pts += p
			}
			s.reg.Counter("session.decoded_points").Add(pts)
		}

		// Buffers: each user receives frameFrac frames of playback.
		presentSpan := s.tr.Begin(step, obs.PipelineUser, obs.StagePresent)
		for u := 0; u < s.cfg.Users; u++ {
			s.buffers[u].Add(frameFrac * dt)
			s.buffers[u].Drain(dt)
			// Observe the achieved goodput for the predictor.
			got := frameFrac * float64(plan.Users[u].RequestBytes) * 8 / dt / 1e6
			s.bwPred[u].Observe(abr.Sample{T: float64(step) * dt, Mbps: got})
			hint := abr.PHYHint{RateCeilingMbps: plan.Users[u].UnicastRateMbps}
			if futureBlocked[u] && !beamSwitched[u] {
				hint.BlockageExpected = true
				hint.BlockageLossFrac = 0.35
			}
			s.bwPred[u].ObservePHY(hint)
		}

		// Byte accounting.
		for _, g := range plan.Groups {
			if len(g) >= 2 {
				sm := float64(plan.OverlapBytes(g)) * frameFrac
				mcBytes += sm
				totBytes += sm
				for _, m := range g {
					rest := (float64(plan.Users[m].RequestBytes) - float64(plan.OverlapBytes(g))) * frameFrac
					if rest > 0 {
						totBytes += rest
					}
				}
			} else if len(g) == 1 {
				totBytes += float64(plan.Users[g[0]].RequestBytes) * frameFrac
			}
		}
		for u := 0; u < s.cfg.Users; u++ {
			q.AvgQuality += float64(s.quality[u])
		}
		presentSpan.End()
		s.reg.Counter("session.steps").Inc()
		s.reg.Histogram("session.step_ms", nil).
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
	if totBytes > 0 {
		q.MulticastShare = mcBytes / totBytes
	}
	return q, nil
}

type refEvaluator struct {
	Store *vivo.Store
	Vis   *vivo.Visibility
	Study *trace.Study
	Net   *Network
	Trace *obs.Tracer

	planner *core.Planner
	decoder codec.Decoder
}

func newRefEvaluator(store *vivo.Store, study *trace.Study, net *Network) *refEvaluator {
	return &refEvaluator{
		Store:   store,
		Vis:     vivo.New(store.Grid(), vivo.DefaultParams()),
		Study:   study,
		Net:     net,
		planner: core.NewPlanner(net),
		decoder: codec.Decoder{Cache: blockcache.Cells()},
	}
}

// userRequest computes user u's fetch request for frame f under the mode.
func (e *refEvaluator) userRequest(mode Mode, f int, pose geom.Pose) vivo.Request {
	occ := e.Store.Frame(f).Occupied
	if mode == ModeVanilla {
		return vivo.VanillaRequest(occ)
	}
	return e.Vis.Request(occ, pose)
}

// refEvalFPS is the parent's Evaluator.EvalFPS.
func (e *refEvaluator) refEvalFPS(cfg EvalConfig) (Result, error) {
	if cfg.Users < 1 {
		return Result{}, fmt.Errorf("stream: need at least 1 user")
	}
	if cfg.Users > e.Study.Users() {
		return Result{}, fmt.Errorf("stream: %d users requested, %d traces", cfg.Users, e.Study.Users())
	}
	if cfg.TargetFPS <= 0 {
		cfg.TargetFPS = 30
	}
	if cfg.DecodeRate.PointsPerSecond <= 0 {
		cfg.DecodeRate = codec.DefaultDecodeRate()
	}
	frames := cfg.Frames
	if frames <= 0 || frames > e.Store.NumFrames() {
		frames = e.Store.NumFrames()
	}

	var sumFPS, sumBytes, sumRate float64
	var mcBytes, totBytes float64
	for f := 0; f < frames; f++ {
		positions := make([]geom.Vec3, cfg.Users)
		reqs := make([]vivo.Request, cfg.Users)
		bodies := make([]phy.Body, cfg.Users)
		points := e.Store.PointsOracle(f)
		// Per-user frustum culling + visibility fans out on the par pool
		// (the visibility pipeline only reads the grid and occupancy);
		// slots fill by user index, then the max reduces sequentially.
		userPoints := make([]int, cfg.Users)
		if err := par.ForEach(context.Background(), cfg.Users, func(u int) error {
			cull := e.Trace.Begin(f, u, obs.StageCull)
			pose := e.Study.Traces[u].PoseAt(f)
			positions[u] = pose.Pos
			bodies[u] = phy.DefaultBody(pose.Pos)
			reqs[u] = e.userRequest(cfg.Mode, f, pose)
			userPoints[u] = reqs[u].Points(points)
			cull.End()
			if cfg.DecodeClouds {
				defer e.Trace.Begin(f, u, obs.StageDecode).End()
				// Client render path: the shared cache's singleflight
				// dedup decodes each distinct block once per frame even
				// though every overlapping user requests it.
				for _, cr := range reqs[u].Cells {
					blk := e.Store.Block(f, cr.ID, cr.Stride)
					if blk == nil {
						continue
					}
					if _, err := e.decoder.Decode(blk.Data); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return Result{}, err
		}
		maxPoints := 0
		for _, p := range userPoints {
			if p > maxPoints {
				maxPoints = p
			}
		}
		// The planner mutates the network's blockage state, so planning
		// itself stays sequential.
		plan, err := e.planner.Plan(cfg.Mode, core.FrameInput{
			Store: e.Store, Frame: f,
			Requests: reqs, Positions: positions, Bodies: bodies,
			CustomBeams: cfg.CustomBeams,
			Seq:         f,
		})
		if err != nil {
			return Result{}, err
		}
		// Attribute each user's share of the schedule as modeled airtime
		// (bytes over the planned unicast rate, the paper's Tm model for
		// singletons; good enough for per-frame attribution).
		for u := range plan.Users {
			bytes := float64(plan.Users[u].RequestBytes)
			rate := plan.Users[u].UnicastRateMbps
			if bytes <= 0 || rate <= 0 {
				continue
			}
			air := time.Duration(bytes * 8 / (rate * 1e6) * float64(time.Second))
			if air > time.Second {
				air = time.Second
			}
			e.Trace.RecordModeled(f, u, obs.StageAirtime, air)
		}
		fps := plan.AchievableFPS(cfg.TargetFPS)
		if d := cfg.DecodeRate.MaxFPS(maxPoints, cfg.TargetFPS); d < fps {
			fps = d
		}
		sumFPS += fps

		for _, u := range plan.Users {
			sumBytes += float64(u.RequestBytes)
			sumRate += u.UnicastRateMbps
		}
		for _, g := range plan.Groups {
			if len(g) >= 2 {
				sm := float64(plan.OverlapBytes(g))
				mcBytes += sm
				totBytes += sm
				for _, m := range g {
					if rest := float64(plan.Users[m].RequestBytes) - sm; rest > 0 {
						totBytes += rest
					}
				}
			} else if len(g) == 1 {
				totBytes += float64(plan.Users[g[0]].RequestBytes)
			}
		}
	}
	n := float64(frames)
	res := Result{
		FPS:             sumFPS / n,
		PerUserBytes:    sumBytes / (n * float64(cfg.Users)),
		PerUserRateMbps: sumRate / (n * float64(cfg.Users)),
	}
	if totBytes > 0 {
		res.MulticastShare = mcBytes / totBytes
	}
	return res, nil
}

// TestRunMatchesReference holds Session.Run to the parent's loop, QoE ==
// QoE, for every (network, mode, 1–5 users) under a seeded draw of the
// remaining switches and under its complement, so each switch is seen on
// and off everywhere. AdaptQuality stays off: that is every configuration
// the parent could express. QoE cannot see the delivered rates a beam
// switch floors and a link cap ceils while nobody adapts, so the modeled
// airtime spans, which are bytes over exactly those rates, are compared too.
func TestRunMatchesReference(t *testing.T) {
	// Heavy enough that frames are delivered in fractions and buffers
	// stall; the runs that decode every delivered cell get a light one.
	heavy, study := testWorld(t, 6, 400_000)
	light, _ := testWorld(t, 10, 20_000)
	nets := []func() (*Network, error){NewAD, NewAC}
	rng := rand.New(rand.NewSource(16))
	for _, newNet := range nets {
		for _, mode := range []Mode{ModeVanilla, ModeViVo, ModeMulticast} {
			for users := 1; users <= 5; users++ {
				draw := rng.Intn(32)
				for _, flags := range []int{draw, ^draw} {
					cfg := SessionConfig{
						Users: users, Seconds: 0.7, Mode: mode,
						CustomBeams:  flags&1 != 0,
						Predictive:   flags&2 != 0,
						Fading:       flags&4 != 0,
						DecodeClouds: flags&8 != 0,
						Seed:         int64(users),
						StartQuality: pointcloud.QualityLow,
						Metrics:      metrics.NewRegistry(),
					}
					if flags&16 != 0 {
						cfg.LinkCapMbps = make([]float64, users)
						cfg.LinkCapMbps[rng.Intn(users)] = 2
					}
					stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: heavy}
					if cfg.DecodeClouds {
						stores[pointcloud.QualityLow] = light
					}
					refNet, err := newNet()
					if err != nil {
						t.Fatal(err)
					}
					cfg.Trace = obs.New(1 << 14)
					want, err := newRefSession(t, cfg, stores, study, refNet).refRun()
					if err != nil {
						t.Fatal(err)
					}
					wantAir := airtimes(cfg.Trace)
					net, err := newNet()
					if err != nil {
						t.Fatal(err)
					}
					cfg.Trace = obs.New(1 << 14)
					sess, err := NewSession(cfg, stores, study, net)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sess.Run()
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%v %v users=%d flags=%05b:\n got %+v\nwant %+v", net.Kind, mode, users, flags&31, got, want)
					}
					if gotAir := airtimes(cfg.Trace); len(gotAir) == 0 || !reflect.DeepEqual(gotAir, wantAir) {
						t.Errorf("%v %v users=%d flags=%05b: modeled airtime differs:\n got %v\nwant %v", net.Kind, mode, users, flags&31, gotAir, wantAir)
					}
				}
			}
		}
	}
}

// airtimes lists a trace's modeled airtime spans as (frame, user,
// nanoseconds), in the order they were recorded.
func airtimes(tr *obs.Tracer) [][3]int64 {
	var out [][3]int64
	for _, sp := range tr.Snapshot() {
		if sp.Stage == obs.StageAirtime {
			out = append(out, [3]int64{int64(sp.Frame), int64(sp.User), sp.Dur})
		}
	}
	return out
}

// TestEvalFPSMatchesReference holds Evaluator.EvalFPS to the parent's
// loop, Result == Result, over the whole grid of its switches.
func TestEvalFPSMatchesReference(t *testing.T) {
	store, study := testWorld(t, 5, 60_000)
	for _, newNet := range []func() (*Network, error){NewAD, NewAC} {
		for _, mode := range []Mode{ModeVanilla, ModeViVo, ModeMulticast} {
			for users := 1; users <= 5; users++ {
				for flags := 0; flags < 4; flags++ {
					cfg := EvalConfig{
						Mode: mode, Users: users, TargetFPS: 30,
						CustomBeams: flags&1 != 0, DecodeClouds: flags&2 != 0,
					}
					refNet, err := newNet()
					if err != nil {
						t.Fatal(err)
					}
					want, err := newRefEvaluator(store, study, refNet).refEvalFPS(cfg)
					if err != nil {
						t.Fatal(err)
					}
					net, err := newNet()
					if err != nil {
						t.Fatal(err)
					}
					got, err := NewEvaluator(store, study, net).EvalFPS(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%v %v users=%d flags=%02b:\n got %+v\nwant %+v", net.Kind, mode, users, flags, got, want)
					}
				}
			}
		}
	}
}

// refDegrade is the parent's degrade, verbatim: it moves every stride of a
// culled request level steps down the ladder, as the hub's pushFrame does
// to a subscriber's.
func refDegrade(lad tier.Ladder, req vivo.Request, level int) vivo.Request {
	if level == 0 {
		return req
	}
	out := vivo.Request{Cells: make([]vivo.CellRequest, len(req.Cells))}
	for i, c := range req.Cells {
		c.Stride, _ = lad.Degrade(c.Stride, level)
		out.Cells[i] = c
	}
	return out
}

// refAdaptQuality is the parent's Session.adaptQuality, verbatim but for
// its receiver, which is the first parameter here, and refDegrade.
func refAdaptQuality(s *Session, fr frame, played float64, q *QoE) {
	store := s.path.store
	lad, size := store.Ladder(), store.SizeOracle(fr.fi)
	for u := range s.level {
		st8 := abr.State{
			PredictedMbps:   s.bwPred[u].Predict(),
			DemandMbps:      codec.BitrateMbps(float64(fr.plan.Users[u].RequestBytes), 30),
			BufferLevel:     played,
			BufferCapacity:  1,
			GroupEfficiency: 1,
		}
		if s.level[u] > 0 {
			up := refDegrade(lad, fr.culled[u], s.level[u]-1)
			delta := 0
			for i, c := range up.Cells {
				delta += store.UpgradeBytes(fr.fi, c.ID, fr.reqs[u].Cells[i].Stride, c.Stride)
			}
			st8.NextUpDemandMbps = codec.BitrateMbps(float64(up.Bytes(size)), 30)
			st8.UpgradeDeltaMbps = codec.BitrateMbps(float64(delta), 30)
		}
		switch s.ctrl.Decide(st8) {
		case abr.ActionQualityDown:
			if s.level[u] < tier.MaxDegrade {
				s.level[u]++
				q.QualitySwitches++
			}
		case abr.ActionQualityUp: // only offered below full density
			s.level[u]--
			q.QualitySwitches++
		case abr.ActionRegroup:
			q.Regroups++
		}
	}
}

// refRunAdapting is the parent's Session.Run, verbatim but for its adapt
// pass, which calls refAdaptQuality. It advances by the live framePath.step:
// TestRunMatchesReference pins the step, this pins the pass.
func (s *Session) refRunAdapting() (QoE, error) {
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
		// controller, buffers and QoE counters are shared state).
		beamSwitched := map[int]bool{}
		steer := func(reqs []vivo.Request) map[int]float64 {
			if len(futureBlocked) == 0 {
				return nil
			}
			floors := map[int]float64{}
			size := s.path.store.SizeOracle(step)
			for u := range reqs {
				if !futureBlocked[u] {
					continue
				}
				st8 := abr.State{
					PredictedMbps:       s.bwPred[u].Predict(),
					DemandMbps:          codec.BitrateMbps(float64(reqs[u].Bytes(size)), 30),
					BufferLevel:         s.buffers[u].Level(),
					BufferCapacity:      s.buffers[u].Capacity,
					BlockageExpected:    true,
					ReflectionAvailable: true,
				}
				switch s.ctrl.Decide(st8) {
				case abr.ActionBeamSwitch:
					// Steer a dedicated beam along the strongest path
					// (reflection) instead of the blocked LOS sector.
					if dir, ok := s.net.Radio.BestPathDir(poses[u].Pos); ok {
						w := s.net.Radio.Array.SteerTo(dir)
						rss := s.net.Radio.RSS(w, poses[u].Pos)
						if r2 := s.net.MAC.EffectiveRate(phy.RateForRSS(phy.AD_SC_MCS, rss)); r2 > 0 {
							floors[u] = r2
						}
						q.BeamSwitches++
						beamSwitched[u] = true
					}
				case abr.ActionPrefetch:
					// Pull future frames while the link is still good.
					s.buffers[u].Add(0.2)
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
			refAdaptQuality(s, fr, played, &q)
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

// TestAdaptMatchesReference holds Session.Run with AdaptQuality on to the
// parent's loop, pass by pass: a run of k seconds ends on its k-th pass,
// so running one, two, three and four seconds compares the levels every
// user stands on after every pass, and the full QoE, against
// refRunAdapting. One user is starved by a link cap and one starts two
// levels down, so passes move users both ways.
func TestAdaptMatchesReference(t *testing.T) {
	store, study := testWorld(t, 10, 40_000)
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
	}{
		{"multicast", SessionConfig{Mode: ModeMulticast}},
		{"multicast+fading+predictive", SessionConfig{Mode: ModeMulticast, Fading: true, Predictive: true}},
		{"vivo", SessionConfig{Mode: ModeViVo}},
	} {
		run := func(seconds int, ref bool) (QoE, []int) {
			cfg := tc.cfg
			cfg.Users, cfg.Seconds, cfg.AdaptQuality = 4, float64(seconds), true
			cfg.StartQuality = pointcloud.QualityLow
			cfg.LinkCapMbps = []float64{0, 2, 0, 0}
			cfg.Metrics = metrics.NewRegistry()
			net, err := NewAD()
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(cfg, stores, study, net)
			if err != nil {
				t.Fatal(err)
			}
			sess.level[3] = 2
			run := sess.Run
			if ref {
				run = sess.refRunAdapting
			}
			q, err := run()
			if err != nil {
				t.Fatal(err)
			}
			return q, sess.level
		}
		var want QoE
		for pass := 1; pass <= 4; pass++ {
			var wantLv []int
			want, wantLv = run(pass, true)
			got, gotLv := run(pass, false)
			if !slices.Equal(gotLv, wantLv) {
				t.Errorf("%s pass %d: levels %v, want %v", tc.name, pass, gotLv, wantLv)
			}
			if got != want {
				t.Errorf("%s pass %d:\n got %+v\nwant %+v", tc.name, pass, got, want)
			}
		}
		if want.QualitySwitches == 0 {
			t.Errorf("%s: no pass moved anyone, the comparison is vacuous", tc.name)
		}
	}
}

// TestAdaptDecisionMatchesReference holds abr's Adapt to refAdaptQuality,
// one pass at a time — levels, switch count, and each user's request at
// its new level against refDegrade's — over seeded inputs: one to four users whose
// requests are culled from a real store at random poses (now and then a
// vanilla request), every level from 0 to tier.MaxDegrade, rate estimates
// from a third of the planned demand to three times it, so both sides of
// DownTrigger and of UpHeadroom are drawn, and played seconds across the
// panic and safe buffer fractions.
func TestAdaptDecisionMatchesReference(t *testing.T) {
	store, study := testWorld(t, 5, 60_000)
	vis := vivo.New(store.Grid(), vivo.DefaultParams())
	lad, rng := store.Ladder(), rand.New(rand.NewSource(26))
	var downs, ups, holds int
	for trial := 0; trial < 1000; trial++ {
		fi := rng.Intn(store.NumFrames())
		occ, size := store.Frame(fi).Occupied, store.SizeOracle(fi)
		n := 1 + rng.Intn(4)
		fr := frame{
			fi:     fi,
			culled: make([]vivo.Request, n),
			reqs:   make([]vivo.Request, n),
			plan:   &core.FramePlan{Users: make([]multicast.User, n)},
		}
		levels, rates := make([]int, n), make([]float64, n)
		for u := range levels {
			if rng.Intn(8) == 0 {
				fr.culled[u] = vivo.VanillaRequest(occ)
			} else {
				pose := study.Traces[rng.Intn(study.Users())].PoseAt(rng.Intn(store.NumFrames()))
				pose.Pos = pose.Pos.Add(geom.V(rng.NormFloat64()*0.5, 0, rng.NormFloat64()*0.5))
				fr.culled[u] = vis.Request(occ, pose)
			}
			levels[u] = rng.Intn(tier.MaxDegrade + 1)
			fr.reqs[u] = refDegrade(lad, fr.culled[u], levels[u])
			fr.plan.Users[u].RequestBytes = fr.reqs[u].Bytes(size)
			rates[u] = codec.BitrateMbps(float64(fr.plan.Users[u].RequestBytes), 30) * math.Exp2(3.2*rng.Float64()-1.6)
		}
		played := rng.Float64()

		ref := &Session{path: framePath{store: store}, ctrl: abr.NewController(abr.DefaultConfig()), level: slices.Clone(levels)}
		for _, r := range rates {
			p := abr.NewCrossLayer(abr.NewEWMA(1))
			p.Observe(abr.Sample{Mbps: r})
			ref.bwPred = append(ref.bwPred, p)
		}
		var want QoE
		refAdaptQuality(ref, fr, played, &want)

		users := make([]abr.User, n)
		for u := range users {
			users[u] = abr.User{Culled: fr.culled[u], Level: levels[u], PredictedMbps: rates[u], PlannedBytes: fr.plan.Users[u].RequestBytes, Played: played}
		}
		got, switches, reqs := abr.NewController(abr.DefaultConfig()).Adapt(store, fi, 30, users)
		if !slices.Equal(got, ref.level) || switches != want.QualitySwitches || want.Regroups != 0 {
			t.Fatalf("trial %d (played %.3f, levels %v, rates %v): levels %v, %d switches; want %v, %+v",
				trial, played, levels, rates, got, switches, ref.level, want)
		}
		for u, r := range reqs {
			if wantReq := refDegrade(lad, fr.culled[u], got[u]); !reflect.DeepEqual(r, wantReq) {
				t.Fatalf("trial %d user %d: request at level %d differs from refDegrade's", trial, u, got[u])
			}
		}
		for u, l := range ref.level {
			switch {
			case l > levels[u]:
				downs++
			case l < levels[u]:
				ups++
			default:
				holds++
			}
		}
	}
	if downs < 100 || ups < 100 || holds < 100 {
		t.Errorf("draws too one-sided: %d down, %d up, %d held", downs, ups, holds)
	}
}
