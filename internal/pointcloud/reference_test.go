package pointcloud

// The generator as it stood before the trigonometry kernel (DESIGN.md §18),
// kept verbatim apart from the ref prefix: math.Sin/math.Cos per point, a
// serial frame loop, and a scene that builds a Cloud per performer and
// copies it into the frame. The differential tests below pin the
// generator's output to these bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"volcast/internal/geom"
	"volcast/internal/par"
)

func refSynthFrame(cfg SynthConfig, frameIdx int) *Cloud {
	r := rand.New(rand.NewSource(cfg.Seed + int64(frameIdx)*7919))
	t := 2 * math.Pi * float64(frameIdx) / 90.0 // 3-second animation loop
	segs := humanoidSegments(t, cfg.Sway)
	cloud := &Cloud{Points: make([]Point, 0, cfg.PointsPerFrame)}
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
			p := sg.a.Add(axis.Scale(h)).
				Add(u.Scale(rad * math.Cos(theta))).
				Add(v.Scale(rad * math.Sin(theta)))
			// Smooth shading (cloth folds + simple top-down light), a
			// function of surface position like a real captured texture.
			// Spatially smooth colors are what make Draco-class color
			// delta coding effective, so the codec sees realistic input.
			shade := uint8(12 + 11*math.Sin(8*h+3*theta) + 4*math.Sin(40*h))
			cloud.Points = append(cloud.Points, Point{
				Pos: p,
				R:   clampU8(int(sg.color[0]) + int(shade)),
				G:   clampU8(int(sg.color[1]) + int(shade)),
				B:   clampU8(int(sg.color[2]) + int(shade)),
			})
		}
	}
	return cloud
}

func refSynthVideo(cfg SynthConfig) *Video {
	if cfg.FPS <= 0 {
		cfg.FPS = 30
	}
	v := &Video{Name: "soldier-synth", FPS: cfg.FPS, Frames: make([]*Cloud, cfg.Frames)}
	for i := 0; i < cfg.Frames; i++ {
		v.Frames[i] = refSynthFrame(cfg, i)
	}
	return v
}

func refSynthScene(cfg SceneConfig) *Video {
	base := cfg.Base
	if base.FPS <= 0 {
		base.FPS = 30
	}
	n := len(cfg.Offsets)
	if n == 0 {
		return refSynthVideo(base)
	}
	per := base.PointsPerFrame / n
	v := &Video{Name: "stage-synth", FPS: base.FPS, Frames: make([]*Cloud, base.Frames)}
	for f := 0; f < base.Frames; f++ {
		frame := &Cloud{Points: make([]Point, 0, base.PointsPerFrame)}
		for pi, off := range cfg.Offsets {
			pcfg := base
			pcfg.PointsPerFrame = per
			pcfg.Seed = base.Seed + int64(pi)*33161
			// Stagger animation phases so performers move independently.
			sub := refSynthFrame(pcfg, f+pi*17)
			for _, p := range sub.Points {
				p.Pos = p.Pos.Add(off)
				frame.Points = append(frame.Points, p)
			}
		}
		v.Frames[f] = frame
	}
	return v
}

// sameCloud fails unless got and want hold the same points, every
// coordinate compared by its bits (== would let -0 pass for +0).
func sameCloud(t *testing.T, what string, got, want *Cloud) {
	t.Helper()
	if len(got.Points) != len(want.Points) || cap(got.Points) != cap(want.Points) {
		t.Fatalf("%s: %d points (cap %d), reference %d (cap %d)", what, len(got.Points), cap(got.Points), len(want.Points), cap(want.Points))
	}
	for i, p := range got.Points {
		q := want.Points[i]
		if math.Float64bits(p.Pos.X) != math.Float64bits(q.Pos.X) ||
			math.Float64bits(p.Pos.Y) != math.Float64bits(q.Pos.Y) ||
			math.Float64bits(p.Pos.Z) != math.Float64bits(q.Pos.Z) ||
			p.R != q.R || p.G != q.G || p.B != q.B {
			t.Fatalf("%s: point %d is %+v, reference %+v", what, i, p, q)
		}
	}
}

func sameVideo(t *testing.T, what string, got, want *Video) {
	t.Helper()
	if got.Name != want.Name || got.FPS != want.FPS || len(got.Frames) != len(want.Frames) {
		t.Fatalf("%s: %q %d FPS %d frames, reference %q %d FPS %d frames", what,
			got.Name, got.FPS, len(got.Frames), want.Name, want.FPS, len(want.Frames))
	}
	for f := range got.Frames {
		sameCloud(t, fmt.Sprintf("%s frame %d", what, f), got.Frames[f], want.Frames[f])
	}
}

// TestSynthMatchesReference pins SynthFrame, SynthVideo and SynthScene to
// the generator they replaced, bit for bit, at pool widths 1, 2 and 8.
func TestSynthMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 7, 1_000_003}
	for _, seed := range seeds {
		for _, sway := range []float64{0, 1} {
			for _, budget := range []int{0, 1, 300, 50_000, 100_000} {
				for _, fi := range []int{0, 45, 89, 90, 300} {
					cfg := SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: budget, Seed: seed, Sway: sway}
					sameCloud(t, fmt.Sprintf("SynthFrame(seed %d, sway %v, %d points, frame %d)", seed, sway, budget, fi),
						SynthFrame(cfg, fi), refSynthFrame(cfg, fi))
				}
			}
		}
	}

	t.Cleanup(func() { par.SetWorkers(0) })
	offsets := [][]geom.Vec3{nil, {geom.V(0.5, 0, -0.25)}, DefaultSceneConfig(0, 0, 0).Offsets}
	for _, workers := range []int{1, 2, 8} {
		par.SetWorkers(workers)
		for _, seed := range seeds {
			for _, size := range []struct{ frames, points int }{{91, 300}, {3, 50_000}} {
				cfg := SynthConfig{Frames: size.frames, PointsPerFrame: size.points, Seed: seed, Sway: 1}
				what := fmt.Sprintf("width %d, seed %d, %d×%d points", workers, seed, size.frames, size.points)
				sameVideo(t, "SynthVideo("+what+")", SynthVideo(cfg), refSynthVideo(cfg))
				for _, offs := range offsets {
					sc := SceneConfig{Base: cfg, Offsets: offs}
					sameVideo(t, fmt.Sprintf("SynthScene(%s, %d performers)", what, len(offs)), SynthScene(sc), refSynthScene(sc))
				}
			}
		}
	}
}

// sameTrig fails unless sinPos and sincosPos return math.Sin and math.Cos
// of x, bit for bit.
func sameTrig(t *testing.T, x float64) {
	t.Helper()
	ws, wc := math.Float64bits(math.Sin(x)), math.Float64bits(math.Cos(x))
	s, c := sincosPos(x)
	if g := math.Float64bits(sinPos(x)); g != ws {
		t.Fatalf("sinPos(%v) = %#x, math.Sin %#x", x, g, ws)
	}
	if math.Float64bits(s) != ws || math.Float64bits(c) != wc {
		t.Fatalf("sincosPos(%v) = %#x, %#x; math %#x, %#x", x, math.Float64bits(s), math.Float64bits(c), ws, wc)
	}
}

// TestTrigMatchesMath checks the kernels against the stdlib at zero, at
// every octant boundary up to 16π and the floats either side of it (where
// the octant, and so the swap and the sign, changes), at the top of the
// domain, and at ten million seeded points over [0, 64) — past the
// generator's [0, 40] — plus a million log-uniform ones up to 2^29.
func TestTrigMatchesMath(t *testing.T) {
	sameTrig(t, 0)
	for k := 0; k <= 64; k++ {
		x := float64(k) * math.Pi / 4
		sameTrig(t, x)
		sameTrig(t, math.Nextafter(x, math.Inf(1)))
		if x > 0 {
			sameTrig(t, math.Nextafter(x, 0))
		}
	}
	sameTrig(t, math.Nextafter(1<<29, 0))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000_000; i++ {
		sameTrig(t, r.Float64()*64)
	}
	for i := 0; i < 1_000_000; i++ {
		sameTrig(t, math.Exp2(r.Float64()*58-29))
	}
}

// FuzzTrigMatchesMath folds any float into the kernels' domain, finite
// [0, 2^29), and requires the stdlib's bits.
func FuzzTrigMatchesMath(f *testing.F) {
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		sameTrig(t, math.Mod(math.Abs(x), 1<<29))
	})
}

func BenchmarkSynthFrame(b *testing.B) {
	cfg := SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 50_000, Seed: 1, Sway: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SynthFrame(cfg, i)
	}
}

func BenchmarkSynthVideo(b *testing.B) {
	cfg := SynthConfig{Frames: 10, FPS: 30, PointsPerFrame: 50_000, Seed: 1, Sway: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		SynthVideo(cfg)
	}
}
