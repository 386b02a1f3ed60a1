package experiments

import (
	"context"
	"fmt"
	"strings"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/core"
	"volcast/internal/geom"
	"volcast/internal/mac"
	"volcast/internal/multiap"
	"volcast/internal/par"
	"volcast/internal/phy"
	"volcast/internal/pointcloud"
	"volcast/internal/predict"
	"volcast/internal/stream"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// ---- Viewport-prediction evaluation (§4.1; methodology of the paper's
// reference [31], CoNEXT'19) ----

// PredEvalRow is one (predictor, horizon) accuracy measurement averaged
// over users.
type PredEvalRow struct {
	Predictor string
	HorizonS  float64
	// PosErrM is the mean translational error in meters.
	PosErrM float64
	// AngErrDeg is the mean view-direction error in degrees.
	AngErrDeg float64
}

// PredEval compares the viewport predictors (static / linear regression /
// online MLP) across horizons on the synthetic study traces.
func PredEval(frames int, seed int64, users int) ([]PredEvalRow, error) {
	if frames <= 0 {
		frames = 600
	}
	if users <= 0 || users > 32 {
		users = 8
	}
	study := trace.GenerateStudy(frames, seed)
	horizons := []float64{0.1, 0.25, 0.5}
	type mk struct {
		name string
		make func(horizon float64) (predict.Predictor, error)
	}
	makers := []mk{
		{"static", func(float64) (predict.Predictor, error) { return predict.NewStatic(), nil }},
		{"linear", func(float64) (predict.Predictor, error) { return predict.NewLinear(30, 20) }},
		{"kalman", func(float64) (predict.Predictor, error) { return predict.NewKalman(30) }},
		{"mlp", func(h float64) (predict.Predictor, error) {
			return predict.NewMLP(30, 8, 16, h, 0.005, seed)
		}},
	}
	// One work item per (predictor, horizon) row; each item builds fresh
	// predictor instances, so the only shared state is the read-only study.
	type rowSpec struct {
		maker mk
		h     float64
	}
	var specs []rowSpec
	for _, m := range makers {
		for _, h := range horizons {
			specs = append(specs, rowSpec{maker: m, h: h})
		}
	}
	return par.Map(context.Background(), len(specs), func(i int) (PredEvalRow, error) {
		m, h := specs[i].maker, specs[i].h
		var posSum, angSum float64
		for u := 0; u < users; u++ {
			p, err := m.make(h)
			if err != nil {
				return PredEvalRow{}, err
			}
			tr := study.Traces[u]
			poses := make([]geom.Pose, tr.Len())
			for i := range poses {
				poses[i] = tr.PoseAt(i)
			}
			pe, ae := predict.Eval(p, poses, 30, h)
			posSum += pe
			angSum += ae
		}
		return PredEvalRow{
			Predictor: m.name,
			HorizonS:  h,
			PosErrM:   posSum / float64(users),
			AngErrDeg: geom.Deg(angSum / float64(users)),
		}, nil
	})
}

// RenderPredEval prints the accuracy table.
func RenderPredEval(rows []PredEvalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-9s %-12s %-12s\n", "model", "horizon", "pos err (m)", "ang err (deg)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-9.2f %-12.3f %-12.2f\n", r.Predictor, r.HorizonS, r.PosErrM, r.AngErrDeg)
	}
	return b.String()
}

// ---- Multi-AP coordination (§5) ----

// MultiAPRow is one (APs, users) capacity measurement.
type MultiAPRow struct {
	APs        int
	Users      int
	FPS        float64
	Concurrent bool
	MinSIRdB   float64
}

// MultiAP sweeps AP counts for an audience spread around the stage and
// reports the coordinated schedule's frame rate (uncapped, so the
// spatial-reuse gain is visible even for light content).
func MultiAP(points, users int, seed int64) ([]MultiAPRow, error) {
	if points <= 0 {
		points = 200_000
	}
	if users <= 0 {
		users = 8
	}
	video := pointcloud.Stage{Frames: 2, Points: points, Performers: 3, Seed: seed}.Video()
	store, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	// Audience spread all around the stage (the multi-AP use case).
	study := trace.Generate(trace.GenConfig{
		Users: users, Device: trace.DeviceHeadset, Frames: 2, Hz: 30,
		Seed: seed, ContentHeight: 1.8, POIs: trace.StudyPOIs(),
	})
	vis := vivo.New(store.Grid(), vivo.DefaultParams())
	occ := store.Frame(0).Occupied
	positions := make([]geom.Vec3, users)
	reqs := make([]vivo.Request, users)
	bodies := make([]phy.Body, users)
	for u := 0; u < users; u++ {
		pose := study.Traces[u].PoseAt(0)
		positions[u] = pose.Pos
		bodies[u] = phy.DefaultBody(pose.Pos)
		reqs[u] = vis.Request(occ, pose)
	}
	// Each AP count plans on its own multiap.System (own channel, own
	// planners); the store, requests and bodies are shared read-only.
	return par.Map(context.Background(), 4, func(i int) (MultiAPRow, error) {
		n := i + 1
		sys, err := multiap.New(n)
		if err != nil {
			return MultiAPRow{}, err
		}
		plan, err := sys.PlanFrame(core.ModeViVo, store, 0, reqs, positions, bodies, false, 1e9)
		if err != nil {
			return MultiAPRow{}, err
		}
		return MultiAPRow{
			APs: n, Users: users, FPS: plan.FPS,
			Concurrent: plan.Concurrent, MinSIRdB: plan.MinSIRdB,
		}, nil
	})
}

// RenderMultiAP prints the AP sweep.
func RenderMultiAP(rows []MultiAPRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-6s %-10s %-11s %-9s\n", "APs", "users", "FPS", "concurrent", "SIR dB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5d %-6d %-10.1f %-11v %-9.1f\n", r.APs, r.Users, r.FPS, r.Concurrent, r.MinSIRdB)
	}
	return b.String()
}

// ---- Feature ablation (DESIGN.md design choices) ----

// AblationRow is one configuration's QoE summary.
type AblationRow struct {
	Config         string
	AvgFPS         float64
	Stalls         int
	StallSeconds   float64
	MulticastShare float64
	BeamSwitches   int
}

// AblationConfig scopes the feature ablation sweep.
type AblationConfig struct {
	Users   int
	Seconds float64
	Points  int
	Seed    int64
}

// Ablation toggles the system's design features one at a time and runs
// the full session engine for each configuration:
//
//	vanilla            no optimizations at all
//	+vivo              visibility optimizations, unicast
//	+multicast         viewport-similarity grouping, default beams
//	+custom-beams      multi-lobe beam design
//	+prediction        joint prediction + proactive blockage actions
func Ablation(cfg AblationConfig) ([]AblationRow, error) {
	if cfg.Users <= 0 {
		cfg.Users = 7
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 3
	}
	if cfg.Points <= 0 {
		cfg.Points = 300_000
	}
	video := pointcloud.Stage{Frames: 30, Points: cfg.Points, Performers: 3, Seed: cfg.Seed}.Video()
	store, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 3, 4})
	if err != nil {
		return nil, err
	}
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	study := trace.GenerateStudy(int(cfg.Seconds*30)+30, cfg.Seed)

	type variant struct {
		name string
		c    stream.SessionConfig
	}
	variants := []variant{
		{"vanilla", stream.SessionConfig{Mode: stream.ModeVanilla}},
		{"+vivo", stream.SessionConfig{Mode: stream.ModeViVo}},
		{"+multicast", stream.SessionConfig{Mode: stream.ModeMulticast}},
		{"+custom-beams", stream.SessionConfig{Mode: stream.ModeMulticast, CustomBeams: true}},
		{"+prediction", stream.SessionConfig{Mode: stream.ModeMulticast, CustomBeams: true, Predictive: true}},
	}
	// Each variant runs the full session engine on its own Network and
	// Session; the content store and traces are shared read-only.
	return par.Map(context.Background(), len(variants), func(i int) (AblationRow, error) {
		v := variants[i]
		sc := v.c
		sc.Users = cfg.Users
		sc.Seconds = cfg.Seconds
		sc.StartQuality = pointcloud.QualityLow
		net, err := stream.NewAD()
		if err != nil {
			return AblationRow{}, err
		}
		sess, err := stream.NewSession(sc, stores, study, net)
		if err != nil {
			return AblationRow{}, err
		}
		q, err := sess.Run()
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Config: v.name, AvgFPS: q.AvgFPS, Stalls: q.Stalls,
			StallSeconds: q.StallSeconds, MulticastShare: q.MulticastShare,
			BeamSwitches: q.BeamSwitches,
		}, nil
	})
}

// RenderAblation prints the sweep.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-8s %-8s %-10s %-9s %-6s\n",
		"config", "FPS", "stalls", "stall (s)", "mc share", "beamsw")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-8.1f %-8d %-10.2f %-8.0f%% %-6d\n",
			r.Config, r.AvgFPS, r.Stalls, r.StallSeconds, r.MulticastShare*100, r.BeamSwitches)
	}
	return b.String()
}

// ---- Reliable groupcast cost (802.11aa GCR) ----

// GCRRow is one (policy, group size, margin) measurement.
type GCRRow struct {
	Policy string
	// Members is the multicast group size.
	Members int
	// MarginDB is every member's RSS margin above the MCS sensitivity.
	MarginDB float64
	// AirtimeX is the expected airtime multiplier (≥1).
	AirtimeX float64
	// ResidualLoss is the post-retry frame loss probability.
	ResidualLoss float64
}

// GCRSweep quantifies what "reliable multicast" costs: for each retry
// policy, group size and RSS margin, the expected airtime inflation and
// the residual loss the application still sees. It explains why the
// common-MCS rule alone (margin 0 for the weakest member) is not free.
func GCRSweep() []GCRRow {
	policies := []struct {
		name string
		g    mac.GCR
	}{
		{"off", mac.GCR{Mode: mac.GCROff}},
		{"gcr-ur(2)", mac.GCR{Mode: mac.GCRUnsolicited, UnsolicitedRetries: 2}},
		{"gcr-ba", mac.DefaultGCR()},
	}
	var rows []GCRRow
	for _, p := range policies {
		for _, members := range []int{2, 3, 4} {
			for _, margin := range []float64{0, 2, 5} {
				margins := make([]float64, members)
				pers := make([]float64, members)
				for i := range margins {
					margins[i] = margin
					pers[i] = mac.PER(margin)
				}
				rows = append(rows, GCRRow{
					Policy:       p.name,
					Members:      members,
					MarginDB:     margin,
					AirtimeX:     p.g.ExpectedTx(pers),
					ResidualLoss: p.g.ResidualLossProb(margins),
				})
			}
		}
	}
	return rows
}

// RenderGCR prints the sweep.
func RenderGCR(rows []GCRRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-10s %-10s %-12s\n",
		"policy", "members", "margin dB", "airtime ×", "resid. loss")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8d %-10.0f %-10.3f %-12.2e\n",
			r.Policy, r.Members, r.MarginDB, r.AirtimeX, r.ResidualLoss)
	}
	return b.String()
}
