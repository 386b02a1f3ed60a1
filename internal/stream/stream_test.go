package stream

import (
	"slices"
	"testing"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/pointcloud"
	"volcast/internal/tier"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// testWorld builds a small but real content store + study for fast tests.
func testWorld(t testing.TB, frames, points int) (*vivo.Store, *trace.Study) {
	t.Helper()
	video := pointcloud.SynthScene(pointcloud.SceneConfig{
		Base:    pointcloud.SynthConfig{Frames: frames, FPS: 30, PointsPerFrame: points, Seed: 1, Sway: 1},
		Offsets: trace.StudyPOIs(),
	})
	b, ok := video.Bounds()
	if !ok {
		t.Fatal("no bounds")
	}
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	enc := codec.NewEncoder(codec.DefaultParams())
	store, err := vivo.BuildStore(video, g, enc, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	study := trace.GenerateStudy(frames, 1)
	return store, study
}

func TestNetworkKinds(t *testing.T) {
	ad, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := NewAC()
	if err != nil {
		t.Fatal(err)
	}
	if ad.Kind.String() != "802.11ad" || ac.Kind.String() != "802.11ac" {
		t.Error("kind names wrong")
	}
	if _, err := ac.UserRSS(geom.V(0, 1.5, 0)); err == nil {
		t.Error("UserRSS on AC did not error")
	}
	// AC unicast rate: calibrated single-user ceiling.
	r := ac.UnicastRate(geom.V(0, 1.5, 0))
	if r < 350 || r > 400 {
		t.Errorf("AC unicast rate %v, want ~374", r)
	}
	// AD unicast rate at a good position: near the transport cap.
	r2 := ad.UnicastRate(geom.V(0, 1.5, -1.5))
	if r2 < 1000 || r2 > 1350 {
		t.Errorf("AD unicast rate %v, want ~1270", r2)
	}
}

func TestMulticastRateCustomBeatsDefaultWhenSeparated(t *testing.T) {
	ad, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	pos := []geom.Vec3{geom.V(-2.5, 1.5, 1), geom.V(2.5, 1.5, 1)}
	def := ad.MulticastRate(pos, false)
	cus := ad.MulticastRate(pos, true)
	if cus < def {
		t.Errorf("custom %v < default %v", cus, def)
	}
	if cus <= 0 {
		t.Error("custom rate zero for covered positions")
	}
	if ad.MulticastRate(nil, false) != 0 {
		t.Error("empty group rate not zero")
	}
	ac, _ := NewAC()
	if r := ac.MulticastRate(pos, false); r <= 0 || r > 30 {
		t.Errorf("AC multicast (basic rate) = %v", r)
	}
}

func TestEvalFPSSingleUserFull(t *testing.T) {
	store, study := testWorld(t, 5, 30_000)
	ad, _ := NewAD()
	ev := NewEvaluator(store, study, ad)
	res, err := ev.EvalFPS(EvalConfig{Mode: ModeVanilla, Users: 1, TargetFPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	// 30K points ≈ tiny bitrate: a single ad user must hit the cap.
	if res.FPS < 29.9 {
		t.Errorf("single-user FPS = %v", res.FPS)
	}
	if res.PerUserBytes <= 0 || res.PerUserRateMbps <= 0 {
		t.Errorf("result accounting empty: %+v", res)
	}
	if res.MulticastShare != 0 {
		t.Errorf("vanilla has multicast share %v", res.MulticastShare)
	}
}

func TestEvalFPSDecreasesWithUsers(t *testing.T) {
	store, study := testWorld(t, 5, 260_000)
	ac, _ := NewAC()
	ev := NewEvaluator(store, study, ac)
	var prev = 1e9
	for _, n := range []int{1, 2, 3} {
		res, err := ev.EvalFPS(EvalConfig{Mode: ModeVanilla, Users: n, TargetFPS: 30})
		if err != nil {
			t.Fatal(err)
		}
		if res.FPS > prev+1e-9 {
			t.Errorf("FPS increased with users: %v -> %v at n=%d", prev, res.FPS, n)
		}
		prev = res.FPS
	}
	if prev >= 29 {
		t.Errorf("3 AC users still near 30 FPS (%v) — content too small for the test", prev)
	}
}

func TestEvalFPSViVoBeatsVanilla(t *testing.T) {
	store, study := testWorld(t, 5, 260_000)
	ac, _ := NewAC()
	ev := NewEvaluator(store, study, ac)
	van, err := ev.EvalFPS(EvalConfig{Mode: ModeVanilla, Users: 3, TargetFPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	viv, err := ev.EvalFPS(EvalConfig{Mode: ModeViVo, Users: 3, TargetFPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	if viv.FPS < van.FPS {
		t.Errorf("ViVo FPS %v below vanilla %v", viv.FPS, van.FPS)
	}
	if viv.PerUserBytes >= van.PerUserBytes {
		t.Errorf("ViVo bytes %v not below vanilla %v", viv.PerUserBytes, van.PerUserBytes)
	}
}

func TestEvalFPSMulticastNotWorseThanViVo(t *testing.T) {
	store, study := testWorld(t, 5, 120_000)
	ad, _ := NewAD()
	ev := NewEvaluator(store, study, ad)
	viv, err := ev.EvalFPS(EvalConfig{Mode: ModeViVo, Users: 6, TargetFPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ev.EvalFPS(EvalConfig{Mode: ModeMulticast, Users: 6, CustomBeams: true, TargetFPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	if mc.FPS < viv.FPS-1e-9 {
		t.Errorf("multicast FPS %v below ViVo %v", mc.FPS, viv.FPS)
	}
}

func TestEvalFPSValidation(t *testing.T) {
	store, study := testWorld(t, 2, 5_000)
	ad, _ := NewAD()
	ev := NewEvaluator(store, study, ad)
	if _, err := ev.EvalFPS(EvalConfig{Users: 0}); err == nil {
		t.Error("0 users accepted")
	}
	if _, err := ev.EvalFPS(EvalConfig{Users: 99}); err == nil {
		t.Error("too many users accepted")
	}
}

func TestSessionRunsAndReportsQoE(t *testing.T) {
	store, study := testWorld(t, 10, 30_000)
	ad, _ := NewAD()
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	sess, err := NewSession(SessionConfig{
		Users: 3, Seconds: 1, Mode: ModeMulticast, CustomBeams: true,
		StartQuality: pointcloud.QualityLow,
	}, stores, study, ad)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if q.AvgFPS <= 0 || q.AvgFPS > 30 {
		t.Errorf("AvgFPS = %v", q.AvgFPS)
	}
	if q.AvgQuality != 0 {
		t.Errorf("AvgQuality = %v without AdaptQuality", q.AvgQuality)
	}
}

func TestSessionValidation(t *testing.T) {
	store, study := testWorld(t, 2, 5_000)
	ad, _ := NewAD()
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	if _, err := NewSession(SessionConfig{Users: 0, StartQuality: pointcloud.QualityLow}, stores, study, ad); err == nil {
		t.Error("0 users accepted")
	}
	if _, err := NewSession(SessionConfig{Users: 99, StartQuality: pointcloud.QualityLow}, stores, study, ad); err == nil {
		t.Error("99 users accepted")
	}
	if _, err := NewSession(SessionConfig{Users: 1, StartQuality: pointcloud.QualityHigh}, stores, study, ad); err == nil {
		t.Error("missing start quality accepted")
	}
	if _, err := NewSession(SessionConfig{Users: 1, StartQuality: pointcloud.QualityLow}, nil, study, ad); err == nil {
		t.Error("no stores accepted")
	}
	two := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store, pointcloud.QualityMedium: store}
	if _, err := NewSession(SessionConfig{Users: 1, StartQuality: pointcloud.QualityLow}, two, study, ad); err == nil {
		t.Error("a second store accepted: quality moves along the rungs of one")
	}
}

func TestSessionPredictiveBeamSwitches(t *testing.T) {
	// A crowded session on mmWave: the predictive pipeline must engage
	// at least occasionally (beam switches or prefetches shift QoE).
	store, study := testWorld(t, 30, 20_000)
	ad, _ := NewAD()
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	sess, err := NewSession(SessionConfig{
		Users: 6, Seconds: 1, Mode: ModeViVo, Predictive: true,
		StartQuality: pointcloud.QualityLow,
	}, stores, study, ad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// No assertion on the count (depends on geometry); the test guards
	// the predictive path against panics and deadlocks.
}

func TestSessionDecodeCacheSharedAcrossUsers(t *testing.T) {
	// Two users watching the same scene overlap heavily (the paper's
	// premise); with DecodeClouds on, the second user's overlapping cells
	// must come out of the shared decode cache, so the hit counter climbs.
	defer blockcache.SetBudgetMB(-1)
	blockcache.SetBudgetMB(64)
	reg := metrics.Default()
	hits0 := reg.Counter("blockcache.decode.hits").Value()
	misses0 := reg.Counter("blockcache.decode.misses").Value()

	store, study := testWorld(t, 10, 30_000)
	ad, _ := NewAD()
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	sess, err := NewSession(SessionConfig{
		Users: 2, Seconds: 1, Mode: ModeViVo, DecodeClouds: true,
		StartQuality: pointcloud.QualityLow,
	}, stores, study, ad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter("blockcache.decode.hits").Value() - hits0
	misses := reg.Counter("blockcache.decode.misses").Value() - misses0
	if misses == 0 {
		t.Fatal("no decode-cache misses: DecodeClouds did not decode anything")
	}
	if hits == 0 {
		t.Error("no decode-cache hits across 2 overlapping users")
	}
	if pts := reg.Counter("session.decoded_points").Value(); pts == 0 {
		t.Error("no decoded points accounted")
	}
}

func TestModeString(t *testing.T) {
	if ModeVanilla.String() != "vanilla" || ModeViVo.String() != "vivo" || ModeMulticast.String() != "multicast" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}

func TestSessionAdaptsAlongStoreRungs(t *testing.T) {
	// One store, four viewers on a link that carries them all with room to
	// spare, one of them throttled far below what its viewport costs. The
	// controller must walk that user, and only that user, down the store's
	// rungs, and bring a user who starts below full density back up.
	store, study := testWorld(t, 10, 40_000)
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	const starved, recovering = 1, 3
	run := func() (QoE, *Session) {
		ad, err := NewAD()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(SessionConfig{
			Users: 4, Seconds: 4, Mode: ModeMulticast, AdaptQuality: true,
			StartQuality: pointcloud.QualityLow,
			LinkCapMbps:  []float64{0, 2, 0, 0},
			Metrics:      metrics.NewRegistry(),
		}, stores, study, ad)
		if err != nil {
			t.Fatal(err)
		}
		sess.level[recovering] = 2
		q, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return q, sess
	}
	q, sess := run()
	for u, l := range sess.level {
		want := 0
		if u == starved {
			want = tier.MaxDegrade
		}
		if l != want {
			t.Errorf("user %d ends at level %d, want %d (levels %v)", u, l, want, sess.level)
		}
	}
	// Three steps down for the starved user, two back up for the other.
	if q.QualitySwitches != 5 {
		t.Errorf("QualitySwitches = %d, want 5", q.QualitySwitches)
	}
	if q.AvgQuality <= 0 || q.AvgQuality >= tier.MaxDegrade {
		t.Errorf("AvgQuality = %v, want a mean level inside (0, %d)", q.AvgQuality, tier.MaxDegrade)
	}
	if q2, _ := run(); q2 != q {
		t.Errorf("adapting session not deterministic: %+v vs %+v", q, q2)
	}

	// The frame after the run, at the levels it ended on: the starved
	// user's request got cheaper, and the multicast group it shares with
	// full-density members still has a payload in common, the densest copy
	// of every cell all of them see.
	poses := make([]geom.Pose, len(sess.level))
	for u := range poses {
		poses[u] = study.Traces[u].PoseAt(0)
	}
	fr, err := sess.path.step(frameSpec{mode: ModeMulticast, poses: poses, views: poses, levels: sess.level})
	if err != nil {
		t.Fatal(err)
	}
	full := fr.culled[starved].Bytes(store.SizeOracle(fr.fi))
	if got := fr.plan.Users[starved].RequestBytes; got <= 0 || got >= full {
		t.Errorf("starved user requests %d B at level %d, %d B at level 0", got, sess.level[starved], full)
	}
	mixed := false
	for _, g := range fr.plan.Groups {
		if len(g) < 2 || !slices.Contains(g, starved) {
			continue
		}
		mixed = true
		if fr.plan.OverlapBytes(g) <= 0 {
			t.Errorf("mixed-level group %v (levels %v) shares no payload", g, sess.level)
		}
	}
	if !mixed {
		t.Errorf("starved user multicast with nobody: groups %v", fr.plan.Groups)
	}
}

func TestSessionFadingDeterministicAndDistinct(t *testing.T) {
	store, study := testWorld(t, 10, 30_000)
	stores := map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}
	run := func(fading bool, seed int64) QoE {
		ad, err := NewAD()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(SessionConfig{
			Users: 3, Seconds: 1, Mode: ModeMulticast,
			StartQuality: pointcloud.QualityLow,
			Fading:       fading, Seed: seed,
		}, stores, study, ad)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	// Determinism: identical config+seed → identical QoE.
	a := run(true, 5)
	b := run(true, 5)
	if a != b {
		t.Errorf("fading session not deterministic: %+v vs %+v", a, b)
	}
	// The no-fading run is also deterministic.
	c := run(false, 5)
	d := run(false, 5)
	if c != d {
		t.Errorf("session not deterministic: %+v vs %+v", c, d)
	}
}
