package pointcloud

import (
	"math"
	"testing"
	"testing/quick"

	"volcast/internal/geom"
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

func TestCentroid(t *testing.T) {
	c := &Cloud{Points: []Point{{Pos: geom.V(0, 0, 0)}, {Pos: geom.V(2, 4, 6)}}}
	if got := c.Centroid(); !got.ApproxEq(geom.V(1, 2, 3), 1e-12) {
		t.Errorf("Centroid = %v", got)
	}
	if got := (&Cloud{}).Centroid(); got != (geom.Vec3{}) {
		t.Errorf("empty Centroid = %v", got)
	}
}

func TestVoxelDownsample(t *testing.T) {
	c := smallCloud()
	d, err := c.VoxelDownsample(10) // one voxel swallows everything near origin
	if err != nil {
		t.Fatal(err)
	}
	// Points at (0,0,0), (1,2,3), (0.001..) share voxel [0,10)^3; (-1,...) is
	// in a different voxel on X.
	if d.Len() != 2 {
		t.Errorf("Downsample(10) kept %d points, want 2", d.Len())
	}
	d2, err := c.VoxelDownsample(0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != c.Len() {
		t.Errorf("tiny voxels dropped points: %d vs %d", d2.Len(), c.Len())
	}
	if _, err := c.VoxelDownsample(0); err == nil {
		t.Error("VoxelDownsample(0) did not error")
	}
	if _, err := c.VoxelDownsample(-1); err == nil {
		t.Error("VoxelDownsample(-1) did not error")
	}
}

func TestSubsample(t *testing.T) {
	c := &Cloud{Points: make([]Point, 10)}
	s, err := c.Subsample(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 { // indices 0,3,6,9
		t.Errorf("Subsample(3) = %d points, want 4", s.Len())
	}
	if _, err := c.Subsample(0); err == nil {
		t.Error("Subsample(0) did not error")
	}
	s1, _ := c.Subsample(1)
	if s1.Len() != 10 {
		t.Errorf("Subsample(1) = %d", s1.Len())
	}
}

func TestTrimTo(t *testing.T) {
	c := &Cloud{Points: make([]Point, 10)}
	if got := c.TrimTo(5).Len(); got != 5 {
		t.Errorf("TrimTo(5) = %d", got)
	}
	if got := c.TrimTo(20); got != c {
		t.Error("TrimTo larger than len should return same cloud")
	}
	if got := c.TrimTo(-1).Len(); got != 0 {
		t.Errorf("TrimTo(-1) = %d", got)
	}
}

func TestVideoDurationAndAvg(t *testing.T) {
	v := &Video{FPS: 30, Frames: []*Cloud{{Points: make([]Point, 10)}, {Points: make([]Point, 20)}}}
	if d := v.Duration(); math.Abs(d-2.0/30) > 1e-12 {
		t.Errorf("Duration = %v", d)
	}
	if a := v.AvgPoints(); a != 15 {
		t.Errorf("AvgPoints = %v", a)
	}
	if (&Video{}).Duration() != 0 || (&Video{}).AvgPoints() != 0 {
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

func TestSynthAnimates(t *testing.T) {
	cfg := SynthConfig{Frames: 2, FPS: 30, PointsPerFrame: 5000, Seed: 7, Sway: 1}
	f0 := SynthFrame(cfg, 0)
	f45 := SynthFrame(cfg, 45) // half the animation loop later
	c0, c45 := f0.Centroid(), f45.Centroid()
	if c0.Dist(c45) < 1e-3 {
		t.Errorf("animation did not move centroid: %v vs %v", c0, c45)
	}
	// Sway=0 freezes the body plan (still random sampling though).
	cfg.Sway = 0
	g0 := SynthFrame(cfg, 0)
	g45 := SynthFrame(cfg, 45)
	if g0.Centroid().Dist(g45.Centroid()) > 0.02 {
		t.Errorf("sway=0 moved too much")
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

// Property: voxel downsampling never increases the point count and never
// produces two points in the same voxel.
func TestPropertyVoxelDownsample(t *testing.T) {
	f := func(seed int64) bool {
		cfg := SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 2000, Seed: seed, Sway: 1}
		c := SynthFrame(cfg, 0)
		d, err := c.VoxelDownsample(0.05)
		if err != nil || d.Len() > c.Len() {
			return false
		}
		seen := map[[3]int]bool{}
		for _, p := range d.Points {
			k := [3]int{
				int(math.Floor(p.Pos.X / 0.05)),
				int(math.Floor(p.Pos.Y / 0.05)),
				int(math.Floor(p.Pos.Z / 0.05)),
			}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
