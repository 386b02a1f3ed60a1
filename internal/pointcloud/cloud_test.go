package pointcloud

import (
	"math"
	"testing"

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
