// Package pointcloud provides the volumetric media substrate: point-cloud
// frames, videos, and a deterministic synthetic generator that stands in
// for the 8i "soldier" dynamic voxelized point-cloud dataset used by the
// paper. The generator produces an articulated humanoid animated at 30 FPS
// whose per-frame point counts and spatial extent match the dataset's
// quality ladder (330K / 430K / 550K points per frame).
package pointcloud

import (
	"context"

	"volcast/internal/geom"
	"volcast/internal/par"
)

// Point is a single colored point of a volumetric frame. Positions are in
// meters in the content coordinate system (Y up, content roughly centered
// on the origin at floor level Y=0).
type Point struct {
	Pos     geom.Vec3
	R, G, B uint8
}

// Cloud is one point-cloud frame's worth of points.
type Cloud struct {
	Points []Point
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// Bounds returns the axis-aligned bounding box of the cloud. An empty
// cloud yields a zero box and ok=false.
func (c *Cloud) Bounds() (geom.AABB, bool) {
	if len(c.Points) == 0 {
		return geom.AABB{}, false
	}
	b := geom.AABB{Min: c.Points[0].Pos, Max: c.Points[0].Pos}
	for _, p := range c.Points[1:] {
		q := p.Pos
		// A point strictly inside the running box leaves it as it is: Min
		// and Max would hand back the box's own components. A NaN fails
		// every comparison, so it takes the full path.
		if b.Min.X < q.X && q.X < b.Max.X && b.Min.Y < q.Y && q.Y < b.Max.Y && b.Min.Z < q.Z && q.Z < b.Max.Z {
			continue
		}
		b.Min = b.Min.Min(q)
		b.Max = b.Max.Max(q)
	}
	return b, true
}

// Video is a sequence of point-cloud frames at a fixed frame rate.
type Video struct {
	// Name identifies the content (e.g. "soldier-synth").
	Name string
	// FPS is the capture/playback frame rate; the paper's content is 30.
	FPS int
	// Frames holds the per-frame clouds.
	Frames []*Cloud
}

// Bounds returns the union of all frame bounds. Each frame's bounds are
// taken on the par pool and collected by index, then united in frame
// order, so the box is the serial pass's, bit for bit, at any width. A
// panicking frame re-panics, as the serial pass did.
func (v *Video) Bounds() (geom.AABB, bool) {
	type frameBox struct {
		b  geom.AABB
		ok bool
	}
	boxes := make([]frameBox, len(v.Frames))
	if err := par.ForEach(context.Background(), len(v.Frames), func(i int) error {
		boxes[i].b, boxes[i].ok = v.Frames[i].Bounds()
		return nil
	}); err != nil {
		panic(err)
	}
	var out geom.AABB
	any := false
	for _, f := range boxes {
		if !f.ok {
			continue
		}
		if !any {
			out = f.b
			any = true
		} else {
			out = out.Union(f.b)
		}
	}
	return out, any
}

// AvgPoints returns the mean number of points per frame.
func (v *Video) AvgPoints() float64 {
	if len(v.Frames) == 0 {
		return 0
	}
	total := 0
	for _, f := range v.Frames {
		total += f.Len()
	}
	return float64(total) / float64(len(v.Frames))
}
