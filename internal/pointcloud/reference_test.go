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

// refShade is the sampler's shade before shadeOf, on the stdlib's sines
// (which sinPos matches bit for bit).
func refShade(h, theta float64) uint8 {
	return uint8(12 + 11*math.Sin(8*h+3*theta) + 4*math.Sin(40*h))
}

// nearShade is the value shadeOf computes from sinNear, and whether it
// lies within the guard, so the exact fallback runs.
func nearShade(h, theta float64) (v float64, exact bool) {
	v = 12 + 11*sinNear(8*h+3*theta) + 4*sinNear(40*h)
	return v, nearInteger(v)
}

// sameShade fails unless shadeOf(h, theta) is refShade's, and returns
// nearShade's value and whether shadeOf took its exact fallback.
func sameShade(t *testing.T, h, theta float64) (v float64, exact bool) {
	t.Helper()
	if got, want := shadeOf(h, theta), refShade(h, theta); got != want {
		t.Fatalf("shadeOf(%v, %v) = %d, reference %d", h, theta, got, want)
	}
	return nearShade(h, theta)
}

// TestShadeMatchesMath holds shadeOf to the shade it replaced over the
// generator's domain (0 ≤ h < 1, 0 ≤ θ < 2π): ten million (h, θ) drawn as
// the sampler draws them; h = 0, where sin(40h) is exactly 0, against a
// θ sweep that includes θ = 0 (a shade of exactly 12); and, for every
// integer the shade can cross, the θ at which it crosses for seeded h and
// the floats either side of it — values within the guard, so the exact
// fallback runs, and straddling the integer, where the approximation
// alone would truncate wrongly. It also sweeps sinNear against sinPos
// over its whole domain, node midpoints (where the Taylor step is
// longest) included, and holds the error to sinNearBound, and the shade's
// value to within shadeBound of the exact expression's.
func TestShadeMatchesMath(t *testing.T) {
	worst := 0.0
	check := func(x float64) {
		if e := math.Abs(sinNear(x) - sinPos(x)); e > worst {
			worst = e
		}
	}
	for k := 0; k < sinNearTop*sinNearScale; k++ {
		mid := (float64(k) + 0.5) / sinNearScale
		for _, x := range []float64{float64(k) / sinNearScale, mid, math.Nextafter(mid, 0), math.Nextafter(mid, 100)} {
			check(x)
		}
	}
	check(sinNearTop)
	for x := 0.0; x < sinNearTop; x += 1e-5 {
		check(x)
	}
	if worst > sinNearBound {
		t.Fatalf("max |sinNear − sinPos| = %.3g over [0, %d], bound %.3g", worst, sinNearTop, sinNearBound)
	}
	t.Logf("max |sinNear − sinPos| = %.3g (bound %.3g)", worst, sinNearBound)

	r := rand.New(rand.NewSource(3))
	worst = 0
	drawn := 0
	for i := 0; i < 10_000_000; i++ {
		h := r.Float64()
		theta := r.Float64() * 2 * math.Pi
		v, exact := sameShade(t, h, theta)
		if exact {
			drawn++
		}
		if e := math.Abs(v - (12 + 11*sinPos(8*h+3*theta) + 4*sinPos(40*h))); e > worst {
			worst = e
		}
	}
	if worst > shadeBound {
		t.Fatalf("max shade value error %.3g, bound %.3g", worst, shadeBound)
	}
	t.Logf("max shade value error %.3g (bound %.3g, guard %.3g); %d of the drawn shades fell back", worst, shadeBound, shadeGuard, drawn)

	if _, exact := sameShade(t, 0, 0); !exact {
		t.Fatal("shadeOf(0, 0) = 12 exactly did not take the exact fallback")
	}
	for i := 0; i < 100_000; i++ {
		sameShade(t, 0, math.Nextafter(float64(i)*2*math.Pi/100_000, 0))
		sameShade(t, 0, r.Float64()*2*math.Pi)
	}

	// Crossings: 12 + 4 sin(40h) + 11 sin(y) = n at y = asin(s) + 2πm and
	// π − asin(s) + 2πm, with y = 8h + 3θ.
	fallbacks, straddles, saved := 0, 0, 0
	for i := 0; i < 300; i++ {
		h := r.Float64()
		if i == 0 {
			h = 0
		}
		for n := -3; n <= 27; n++ {
			s := (float64(n) - 12 - 4*math.Sin(40*h)) / 11
			if s < -1 || s > 1 {
				continue
			}
			for m := -1; m <= 5; m++ {
				for _, y := range []float64{math.Asin(s) + 2*math.Pi*float64(m), math.Pi - math.Asin(s) + 2*math.Pi*float64(m)} {
					theta := (y - 8*h) / 3
					if theta < 0 || theta >= 2*math.Pi {
						continue
					}
					below, above := false, false
					lo := theta
					for j := 0; j < 16 && lo > 0; j++ {
						lo = math.Nextafter(lo, 0)
					}
					for x, j := lo, 0; j < 33 && x < 2*math.Pi; x, j = math.Nextafter(x, 7), j+1 {
						v, fell := sameShade(t, h, x)
						if fell {
							fallbacks++
						}
						if uint8(v) != refShade(h, x) {
							saved++ // the fallback, not the approximation, got this one right
						}
						exact := 12 + 11*sinPos(8*h+3*x) + 4*sinPos(40*h)
						below = below || exact < float64(n)
						above = above || exact >= float64(n)
					}
					if below && above {
						straddles++
					}
				}
			}
		}
	}
	if fallbacks == 0 || straddles == 0 || saved == 0 {
		t.Fatalf("searched crossings: %d exact fallbacks, %d straddled integers, %d shades only the fallback got right; want all > 0", fallbacks, straddles, saved)
	}
	t.Logf("searched crossings: %d exact fallbacks, %d straddled integers, %d shades only the fallback got right", fallbacks, straddles, saved)
}

// FuzzShadeMatchesMath folds any (h, θ) into the generator's domain,
// 0 ≤ h < 1 and 0 ≤ θ < 2π, and requires the shade of the stdlib's sines.
func FuzzShadeMatchesMath(f *testing.F) {
	f.Add(0.0, 0.0)
	f.Add(0.5, 1.0)
	f.Add(math.Nextafter(1, 0), math.Nextafter(2*math.Pi, 0))
	f.Fuzz(func(t *testing.T, h, theta float64) {
		if math.IsNaN(h) || math.IsInf(h, 0) || math.IsNaN(theta) || math.IsInf(theta, 0) {
			return
		}
		sameShade(t, math.Mod(math.Abs(h), 1), math.Mod(math.Abs(theta), 2*math.Pi))
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
