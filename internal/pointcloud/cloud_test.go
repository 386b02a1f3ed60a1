package pointcloud

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"volcast/internal/geom"
	"volcast/internal/par"
)

func smallCloud() *Cloud {
	return &Cloud{Points: []Point{
		{Pos: geom.V(0, 0, 0)},
		{Pos: geom.V(1, 2, 3)},
		{Pos: geom.V(-1, 0.5, 2)},
		{Pos: geom.V(0.001, 0.001, 0.001)},
	}}
}

func TestBounds(t *testing.T) {
	c := smallCloud()
	b, ok := c.Bounds()
	if !ok {
		t.Fatal("Bounds not ok")
	}
	if b.Min != geom.V(-1, 0, 0) || b.Max != geom.V(1, 2, 3) {
		t.Errorf("Bounds = %v", b)
	}
	if _, ok := (&Cloud{}).Bounds(); ok {
		t.Error("empty cloud Bounds ok")
	}
}

// refBounds is Cloud.Bounds before it skipped interior points: Min and
// Max on every point.
func refBounds(c *Cloud) (geom.AABB, bool) {
	if len(c.Points) == 0 {
		return geom.AABB{}, false
	}
	b := geom.AABB{Min: c.Points[0].Pos, Max: c.Points[0].Pos}
	for _, p := range c.Points[1:] {
		b.Min = b.Min.Min(p.Pos)
		b.Max = b.Max.Max(p.Pos)
	}
	return b, true
}

// sameBits reports whether two boxes agree bit for bit on every component.
func sameBits(a, b geom.AABB) bool {
	for _, p := range [][2]float64{
		{a.Min.X, b.Min.X}, {a.Min.Y, b.Min.Y}, {a.Min.Z, b.Min.Z},
		{a.Max.X, b.Max.X}, {a.Max.Y, b.Max.Y}, {a.Max.Z, b.Max.Z},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// TestBoundsMatchesReference holds Cloud.Bounds and Video.Bounds to the
// per-point Min/Max pass by Float64bits: seeded clouds whose components
// mix ordinary values with ±0, NaNs of two payloads and ±Inf, clouds with
// points on every face of their box (ties), and every cloud in several
// shuffled orders.
func TestBoundsMatchesReference(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000123), math.Inf(1), math.Inf(-1)}
	r := rand.New(rand.NewSource(11))
	component := func(special float64) float64 {
		if r.Float64() < special {
			return specials[r.Intn(len(specials))]
		}
		return float64(r.Intn(9)-4) * 0.5 // a coarse lattice: many ties
	}
	var clouds []*Cloud
	for _, special := range []float64{0, 0.01, 0.2, 1} {
		for _, n := range []int{1, 2, 3, 10, 200} {
			c := &Cloud{Points: make([]Point, n)}
			for i := range c.Points {
				c.Points[i].Pos = geom.V(component(special), component(special), component(special))
			}
			clouds = append(clouds, c)
		}
	}
	// Ties on every face: an interior cloud, then points that each sit on
	// one face of its box and strictly inside on the other two axes.
	c := &Cloud{}
	for i := 0; i < 50; i++ {
		c.Points = append(c.Points, Point{Pos: geom.V(r.Float64(), r.Float64(), r.Float64())})
	}
	b, _ := refBounds(c)
	mid := b.Min.Lerp(b.Max, 0.5)
	for _, face := range []geom.Vec3{
		{X: b.Min.X, Y: mid.Y, Z: mid.Z}, {X: b.Max.X, Y: mid.Y, Z: mid.Z},
		{X: mid.X, Y: b.Min.Y, Z: mid.Z}, {X: mid.X, Y: b.Max.Y, Z: mid.Z},
		{X: mid.X, Y: mid.Y, Z: b.Min.Z}, {X: mid.X, Y: mid.Y, Z: b.Max.Z},
		b.Min, b.Max,
	} {
		c.Points = append(c.Points, Point{Pos: face})
	}
	clouds = append(clouds, c, smallCloud(), &Cloud{})
	// Signed-zero ties: a box with a +0 face met by a −0 on that axis, and
	// a −0 face met by a +0, the one tie whose Min/Max changes the bits.
	pz, nz := 0.0, math.Copysign(0, -1)
	for axis := 0; axis < 3; axis++ {
		on := func(v, other float64) geom.Vec3 {
			p := geom.V(other, other, other)
			switch axis {
			case 0:
				p.X = v
			case 1:
				p.Y = v
			default:
				p.Z = v
			}
			return p
		}
		clouds = append(clouds,
			&Cloud{Points: []Point{{Pos: geom.V(pz, pz, pz)}, {Pos: geom.V(1, 1, 1)}, {Pos: on(nz, 0.5)}}},
			&Cloud{Points: []Point{{Pos: geom.V(nz, nz, nz)}, {Pos: geom.V(-1, -1, -1)}, {Pos: on(pz, -0.5)}}})
	}

	for ci, c := range clouds {
		for order := 0; order < 8; order++ {
			if order > 0 {
				r.Shuffle(len(c.Points), func(i, j int) { c.Points[i], c.Points[j] = c.Points[j], c.Points[i] })
			}
			got, gotOK := c.Bounds()
			want, wantOK := refBounds(c)
			if gotOK != wantOK || !sameBits(got, want) {
				t.Fatalf("cloud %d, order %d: Bounds = %v %v, reference %v %v", ci, order, got, gotOK, want, wantOK)
			}
		}
	}

	v := &Video{Frames: clouds}
	want, wantOK := geom.AABB{}, false
	for _, c := range clouds {
		if b, ok := refBounds(c); ok {
			if wantOK {
				want = want.Union(b)
			} else {
				want, wantOK = b, true
			}
		}
	}
	if got, gotOK := v.Bounds(); gotOK != wantOK || !sameBits(got, want) {
		t.Fatalf("Video.Bounds = %v %v, reference %v %v", got, gotOK, want, wantOK)
	}
}

// refVideoBounds is Video.Bounds before it took the frames' bounds on the
// pool: one serial pass, uniting each frame's box in frame order.
func refVideoBounds(v *Video) (geom.AABB, bool) {
	var out geom.AABB
	any := false
	for _, f := range v.Frames {
		b, ok := f.Bounds()
		if !ok {
			continue
		}
		if !any {
			out = b
			any = true
		} else {
			out = out.Union(b)
		}
	}
	return out, any
}

// TestVideoBoundsMatchesReference holds Video.Bounds to the serial union
// by Float64bits at pool widths 1, 2 and 8: no frames, only empty frames,
// empty and single-point frames among full ones, frames whose faces meet
// as −0 against +0 (in both frame orders), NaN coordinates of two
// payloads and ±Inf, seeded mixes of all of these, and synthesized videos.
func TestVideoBoundsMatchesReference(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	pz, nz := 0.0, math.Copysign(0, -1)
	nan1, nan2 := math.NaN(), math.Float64frombits(0xfff8000000000123)
	one := func(x, y, z float64) *Cloud { return &Cloud{Points: []Point{{Pos: geom.V(x, y, z)}}} }
	videos := []*Video{
		{},
		{Frames: []*Cloud{{}, {}, {}}},
		{Frames: []*Cloud{{}, one(1, 2, 3), {}, one(-1, 0.5, 2), smallCloud(), {}}},
		{Frames: []*Cloud{one(pz, pz, pz), one(nz, nz, nz), one(1, 1, 1)}},
		{Frames: []*Cloud{one(nz, nz, nz), one(pz, pz, pz), one(-1, -1, -1)}},
		{Frames: []*Cloud{one(pz, nz, pz), {}, one(nz, pz, nz)}},
		{Frames: []*Cloud{one(1, 2, 3), one(nan1, 0, 0), one(0, nan2, 0), one(0, 0, -4)}},
		{Frames: []*Cloud{one(nan2, nan1, nan1), one(nan1, nan2, 0)}},
		{Frames: []*Cloud{one(math.Inf(1), 0, 0), one(math.Inf(-1), nan1, 0), smallCloud()}},
	}
	specials := []float64{pz, nz, nan1, nan2, math.Inf(1), math.Inf(-1)}
	r := rand.New(rand.NewSource(17))
	component := func() float64 {
		if r.Float64() < 0.05 {
			return specials[r.Intn(len(specials))]
		}
		return float64(r.Intn(9)-4) * 0.5
	}
	for i := 0; i < 40; i++ {
		v := &Video{Frames: make([]*Cloud, 1+r.Intn(24))}
		for f := range v.Frames {
			v.Frames[f] = &Cloud{Points: make([]Point, r.Intn(4)*r.Intn(20))}
			for p := range v.Frames[f].Points {
				v.Frames[f].Points[p].Pos = geom.V(component(), component(), component())
			}
		}
		videos = append(videos, v)
	}
	videos = append(videos,
		SynthVideo(SynthConfig{Frames: 10, PointsPerFrame: 5_000, Seed: 4, Sway: 1}),
		SynthScene(DefaultSceneConfig(6, 6_000, 9)))

	for _, workers := range []int{1, 2, 8} {
		par.SetWorkers(workers)
		for vi, v := range videos {
			want, wantOK := refVideoBounds(v)
			if got, gotOK := v.Bounds(); gotOK != wantOK || !sameBits(got, want) {
				t.Fatalf("width %d, video %d: Bounds = %v %v, reference %v %v", workers, vi, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestVideoDurationAndAvg(t *testing.T) {
	v := &Video{FPS: 30, Frames: []*Cloud{{Points: make([]Point, 10)}, {Points: make([]Point, 20)}}}
	if a := v.AvgPoints(); a != 15 {
		t.Errorf("AvgPoints = %v", a)
	}
	if (&Video{}).AvgPoints() != 0 {
		t.Error("empty video stats not zero")
	}
}

func TestSynthFrameBudgetAndExtent(t *testing.T) {
	cfg := SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 50_000, Seed: 42, Sway: 1}
	c := SynthFrame(cfg, 0)
	n := c.Len()
	if n < 45_000 || n > 50_000 {
		t.Errorf("point budget: got %d, want ~50000", n)
	}
	b, ok := c.Bounds()
	if !ok {
		t.Fatal("no bounds")
	}
	// Human-scale content: ~1.8m tall, standing on floor.
	if b.Max.Y < 1.5 || b.Max.Y > 2.2 {
		t.Errorf("height %v not human scale", b.Max.Y)
	}
	if b.Min.Y < -0.1 {
		t.Errorf("content below floor: %v", b.Min.Y)
	}
	sz := b.Size()
	if sz.X > 2 || sz.Z > 2 {
		t.Errorf("content too wide: %v", sz)
	}
}

func TestSynthDeterminism(t *testing.T) {
	cfg := SynthConfig{Frames: 4, FPS: 30, PointsPerFrame: 5000, Seed: 7, Sway: 1}
	a := SynthVideo(cfg)
	b := SynthVideo(cfg)
	for f := range a.Frames {
		if a.Frames[f].Len() != b.Frames[f].Len() {
			t.Fatalf("frame %d: non-deterministic point count", f)
		}
		for i := range a.Frames[f].Points {
			if a.Frames[f].Points[i] != b.Frames[f].Points[i] {
				t.Fatalf("frame %d: non-deterministic point %d", f, i)
			}
		}
	}
}

// centroid returns the mean point position of a non-empty cloud.
func centroid(c *Cloud) geom.Vec3 {
	var s geom.Vec3
	for _, p := range c.Points {
		s = s.Add(p.Pos)
	}
	return s.Scale(1 / float64(len(c.Points)))
}

func TestSynthAnimates(t *testing.T) {
	cfg := SynthConfig{Frames: 2, FPS: 30, PointsPerFrame: 5000, Seed: 7, Sway: 1}
	f0 := SynthFrame(cfg, 0)
	f45 := SynthFrame(cfg, 45) // half the animation loop later
	c0, c45 := centroid(f0), centroid(f45)
	if c0.Dist(c45) < 1e-3 {
		t.Errorf("animation did not move centroid: %v vs %v", c0, c45)
	}
	// Sway=0 freezes the body plan (still random sampling though).
	cfg.Sway = 0
	g0 := SynthFrame(cfg, 0)
	g45 := SynthFrame(cfg, 45)
	if centroid(g0).Dist(centroid(g45)) > 0.02 {
		t.Errorf("sway=0 moved too much")
	}
}

// TestStageVideo pins the one content rule: at most one performer is the
// single swaying humanoid, n performers are SynthScene over the first n
// of DefaultSceneConfig's offsets, and more than three clamp to three.
func TestStageVideo(t *testing.T) {
	const frames, points, seed = 2, 3000, 5
	scene := func(n int) *Video {
		cfg := DefaultSceneConfig(frames, points, seed)
		cfg.Offsets = cfg.Offsets[:n]
		return SynthScene(cfg)
	}
	single := SynthVideo(SynthConfig{Frames: frames, FPS: 30, PointsPerFrame: points, Seed: seed, Sway: 1})
	for _, tc := range []struct {
		performers int
		want       *Video
	}{
		{0, single},
		{1, single},
		{2, scene(2)},
		{3, scene(3)},
		{5, scene(3)},
	} {
		got := Stage{Frames: frames, Points: points, Performers: tc.performers, Seed: seed}.Video()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Stage{Performers: %d}.Video() is not the rule's video (%s, %d frames)",
				tc.performers, got.Name, len(got.Frames))
		}
	}
	if reflect.DeepEqual(scene(2), scene(3)) {
		t.Fatal("two and three performers synthesize the same video: the rule is not pinned")
	}
}

func TestQualityString(t *testing.T) {
	if QualityLow.String() != "330K" || QualityMedium.String() != "430K" || QualityHigh.String() != "550K" {
		t.Error("quality names wrong")
	}
	if Quality(99).String() == "" {
		t.Error("unknown quality empty name")
	}
	if Quality(99).Points() != 330_000 {
		t.Error("unknown quality points fallback")
	}
}

// BenchmarkVideoBounds is the bounds pass every store factory makes on its
// way to frame 0, over cold_join's content: 10 frames of 50 K points.
func BenchmarkVideoBounds(b *testing.B) {
	v := SynthVideo(SynthConfig{Frames: 10, FPS: 30, PointsPerFrame: 50_000, Seed: 1, Sway: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := v.Bounds(); !ok {
			b.Fatal("no bounds")
		}
	}
}
