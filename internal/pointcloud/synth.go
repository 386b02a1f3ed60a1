package pointcloud

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"volcast/internal/geom"
	"volcast/internal/par"
)

// Quality selects one rung of the paper's three-version quality ladder.
type Quality int

// The three visual qualities evaluated in Table 1, identified by their
// average point counts per frame.
const (
	QualityLow    Quality = iota // ~330K points/frame
	QualityMedium                // ~430K points/frame
	QualityHigh                  // ~550K points/frame
)

// String implements fmt.Stringer.
func (q Quality) String() string {
	switch q {
	case QualityLow:
		return "330K"
	case QualityMedium:
		return "430K"
	case QualityHigh:
		return "550K"
	default:
		return fmt.Sprintf("Quality(%d)", int(q))
	}
}

// Points returns the target points-per-frame of the quality rung.
func (q Quality) Points() int {
	switch q {
	case QualityLow:
		return 330_000
	case QualityMedium:
		return 430_000
	case QualityHigh:
		return 550_000
	default:
		return 330_000
	}
}

// Qualities lists the ladder from low to high.
func Qualities() []Quality { return []Quality{QualityLow, QualityMedium, QualityHigh} }

// SynthConfig configures the synthetic humanoid video generator.
type SynthConfig struct {
	// Frames is the number of frames to generate.
	Frames int
	// FPS is the frame rate; the dataset's is 30.
	FPS int
	// PointsPerFrame is the approximate point budget per frame.
	PointsPerFrame int
	// Seed makes generation deterministic.
	Seed int64
	// Sway controls the animation amplitude (0 disables motion).
	Sway float64
}

// segment is one capsule of the articulated humanoid: a tube from A to B
// with the given radius, holding a share of the point budget.
type segment struct {
	a, b   geom.Vec3
	radius float64
	share  float64 // fraction of total points
	color  [3]uint8
}

// humanoidSegments returns the body plan of a ~1.8 m standing human,
// posed for animation phase t in [0, 2π).
func humanoidSegments(t, sway float64) []segment {
	// Gentle idle animation: torso sway, arm swing, slight knee motion.
	s := math.Sin(t) * 0.12 * sway
	c := math.Cos(t*0.7) * 0.08 * sway
	armSwing := math.Sin(t*1.3) * 0.25 * sway

	hip := geom.V(s*0.3, 0.95, c*0.3)
	neck := hip.Add(geom.V(s*0.2, 0.55, 0))
	head := neck.Add(geom.V(0, 0.17, 0))

	lShoulder := neck.Add(geom.V(-0.22, -0.05, 0))
	rShoulder := neck.Add(geom.V(0.22, -0.05, 0))
	lHand := lShoulder.Add(geom.V(-0.05, -0.55, armSwing))
	rHand := rShoulder.Add(geom.V(0.05, -0.55, -armSwing))

	lHip := hip.Add(geom.V(-0.12, 0, 0))
	rHip := hip.Add(geom.V(0.12, 0, 0))
	lFoot := geom.V(lHip.X, 0, lHip.Z+0.05*math.Sin(t*1.1)*sway)
	rFoot := geom.V(rHip.X, 0, rHip.Z-0.05*math.Sin(t*1.1)*sway)

	uniform := [3]uint8{90, 110, 70} // fatigues green, soldier-like
	skin := [3]uint8{205, 170, 140}
	boots := [3]uint8{60, 50, 40}

	return []segment{
		{a: hip, b: neck, radius: 0.16, share: 0.34, color: uniform}, // torso
		{a: neck, b: head, radius: 0.10, share: 0.10, color: skin},   // head+neck
		{a: lShoulder, b: lHand, radius: 0.055, share: 0.10, color: uniform},
		{a: rShoulder, b: rHand, radius: 0.055, share: 0.10, color: uniform},
		{a: lHip, b: lFoot, radius: 0.075, share: 0.14, color: uniform}, // legs
		{a: rHip, b: rFoot, radius: 0.075, share: 0.14, color: uniform},
		{a: lFoot, b: lFoot.Add(geom.V(0, 0.05, 0.12)), radius: 0.05, share: 0.04, color: boots},
		{a: rFoot, b: rFoot.Add(geom.V(0, 0.05, 0.12)), radius: 0.05, share: 0.04, color: boots},
	}
}

// SynthFrame generates a single humanoid frame for animation phase t.
func SynthFrame(cfg SynthConfig, frameIdx int) *Cloud {
	return &Cloud{Points: appendHumanoid(make([]Point, 0, cfg.PointsPerFrame), cfg, frameIdx)}
}

// appendHumanoid samples frame frameIdx of one humanoid onto pts — the
// one sampler SynthFrame and SynthScene share.
func appendHumanoid(pts []Point, cfg SynthConfig, frameIdx int) []Point {
	r := rand.New(rand.NewSource(cfg.Seed + int64(frameIdx)*7919))
	t := 2 * math.Pi * float64(frameIdx) / 90.0 // 3-second animation loop
	segs := humanoidSegments(t, cfg.Sway)
	for _, sg := range segs {
		n := int(float64(cfg.PointsPerFrame) * sg.share)
		axis := sg.b.Sub(sg.a)
		// Build an orthonormal frame around the capsule axis for surface
		// sampling; points lie on (and slightly within) the capsule shell,
		// which is what a real captured human surface looks like.
		dir := axis.Norm()
		var ref geom.Vec3
		if math.Abs(dir.Y) < 0.9 {
			ref = geom.V(0, 1, 0)
		} else {
			ref = geom.V(1, 0, 0)
		}
		u := dir.Cross(ref).Norm()
		v := dir.Cross(u)
		for i := 0; i < n; i++ {
			h := r.Float64()
			theta := r.Float64() * 2 * math.Pi
			// Surface shell with small depth noise, like real scans.
			rad := sg.radius * (0.92 + 0.08*r.Float64())
			sin, cos := sincosPos(theta)
			p := sg.a.Add(axis.Scale(h)).
				Add(u.Scale(rad * cos)).
				Add(v.Scale(rad * sin))
			// Smooth shading (cloth folds + simple top-down light), a
			// function of surface position like a real captured texture.
			// Spatially smooth colors are what make Draco-class color
			// delta coding effective, so the codec sees realistic input.
			shade := shadeOf(h, theta)
			pts = append(pts, Point{
				Pos: p,
				R:   clampU8(int(sg.color[0]) + int(shade)),
				G:   clampU8(int(sg.color[1]) + int(shade)),
				B:   clampU8(int(sg.color[2]) + int(shade)),
			})
		}
	}
	return pts
}

func clampU8(x int) uint8 {
	if x > 255 {
		return 255
	}
	if x < 0 {
		return 0
	}
	return uint8(x)
}

// SynthVideo generates a full synthetic volumetric video.
func SynthVideo(cfg SynthConfig) *Video {
	if cfg.FPS <= 0 {
		cfg.FPS = 30
	}
	v := &Video{Name: "soldier-synth", FPS: cfg.FPS, Frames: make([]*Cloud, cfg.Frames)}
	fillFrames(v.Frames, func(i int) *Cloud { return SynthFrame(cfg, i) })
	return v
}

// fillFrames sets frames[i] = frame(i) for every i on the par pool. Every
// frame seeds its own generator, so the video is the same at any width.
func fillFrames(frames []*Cloud, frame func(i int) *Cloud) {
	if err := par.ForEach(context.Background(), len(frames), func(i int) error {
		frames[i] = frame(i)
		return nil
	}); err != nil {
		panic(err) // a frame panicked; re-raise it as the serial loop did
	}
}

// SceneConfig configures a multi-performer scene: several humanoids on
// stage, which is what makes inter-user viewport similarity non-trivial
// (users attend to different performers at different times).
type SceneConfig struct {
	// Base configures each performer's sampling; the per-performer point
	// budget is Base.PointsPerFrame divided by the performer count.
	Base SynthConfig
	// Offsets are the performers' floor positions.
	Offsets []geom.Vec3
}

// DefaultSceneConfig returns a three-performer stage spread over ~4 m,
// totalling the given points per frame.
func DefaultSceneConfig(frames, pointsPerFrame int, seed int64) SceneConfig {
	return SceneConfig{
		Base: SynthConfig{Frames: frames, FPS: 30, PointsPerFrame: pointsPerFrame, Seed: seed, Sway: 1},
		Offsets: []geom.Vec3{
			geom.V(-1.8, 0, 0.4),
			geom.V(0, 0, -0.3),
			geom.V(1.8, 0, 0.5),
		},
	}
}

// Stage describes synthetic content: Performers humanoids sharing Points
// per frame over Frames frames at 30 FPS. It is the one rule every
// content builder follows.
type Stage struct {
	Frames, Points, Performers int
	Seed                       int64
}

// Video synthesizes the stage: one swaying humanoid (SynthVideo) for at
// most one performer, otherwise SynthScene over the first
// min(Performers, 3) offsets of DefaultSceneConfig.
func (s Stage) Video() *Video {
	if s.Performers <= 1 {
		return SynthVideo(SynthConfig{Frames: s.Frames, FPS: 30, PointsPerFrame: s.Points, Seed: s.Seed, Sway: 1})
	}
	scene := DefaultSceneConfig(s.Frames, s.Points, s.Seed)
	scene.Offsets = scene.Offsets[:min(s.Performers, len(scene.Offsets))]
	return SynthScene(scene)
}

// SynthScene generates a video with one humanoid per offset, each with its
// own animation phase, sharing the frame's point budget.
func SynthScene(cfg SceneConfig) *Video {
	base := cfg.Base
	if base.FPS <= 0 {
		base.FPS = 30
	}
	n := len(cfg.Offsets)
	if n == 0 {
		return SynthVideo(base)
	}
	per := base.PointsPerFrame / n
	v := &Video{Name: "stage-synth", FPS: base.FPS, Frames: make([]*Cloud, base.Frames)}
	fillFrames(v.Frames, func(f int) *Cloud {
		pts := make([]Point, 0, base.PointsPerFrame)
		for pi, off := range cfg.Offsets {
			pcfg := base
			pcfg.PointsPerFrame = per
			pcfg.Seed = base.Seed + int64(pi)*33161
			// Stagger animation phases so performers move independently.
			start := len(pts)
			pts = appendHumanoid(pts, pcfg, f+pi*17)
			for i := range pts[start:] {
				pts[start+i].Pos = pts[start+i].Pos.Add(off)
			}
		}
		return &Cloud{Points: pts}
	})
	return v
}
