package geom

import (
	"fmt"
	"math"
)

// Pose is a 6DoF viewport pose: translational position plus rotational
// orientation. It is the unit the 30 Hz viewport traces are made of.
type Pose struct {
	Pos Vec3
	Rot Quat
}

// Lerp interpolates position linearly and orientation spherically by t.
func (p Pose) Lerp(q Pose, t float64) Pose {
	return Pose{Pos: p.Pos.Lerp(q.Pos, t), Rot: p.Rot.Slerp(q.Rot, t)}
}

// AABB is an axis-aligned bounding box, Min ≤ Max component-wise.
type AABB struct {
	Min, Max Vec3
}

// NewAABB returns the box spanning a and b regardless of their ordering.
func NewAABB(a, b Vec3) AABB { return AABB{Min: a.Min(b), Max: a.Max(b)} }

// Center returns the box center.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extent along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	return AABB{Min: b.Min.Min(c.Min), Max: b.Max.Max(c.Max)}
}

// Expand grows the box by d in every direction.
func (b AABB) Expand(d float64) AABB {
	e := Vec3{d, d, d}
	return AABB{Min: b.Min.Sub(e), Max: b.Max.Add(e)}
}

// String implements fmt.Stringer.
func (b AABB) String() string { return fmt.Sprintf("aabb[%v..%v]", b.Min, b.Max) }

// Plane is the set of points p with Normal·p + D = 0; Normal should be unit
// length so Dist returns metric distance.
type Plane struct {
	Normal Vec3
	D      float64
}

// Dist returns the signed distance from p to the plane (positive on the
// normal side).
func (pl Plane) Dist(p Vec3) float64 { return pl.Normal.Dot(p) + pl.D }

// PlaneFromPointNormal builds the plane through point with the given normal.
func PlaneFromPointNormal(point, normal Vec3) Plane {
	n := normal.Norm()
	return Plane{Normal: n, D: -n.Dot(point)}
}

// Frustum is a view frustum described by its six inward-facing planes, in
// the order near, far, left, right, top, bottom. A point is inside when its
// signed distance to every plane is non-negative.
type Frustum struct {
	Planes [6]Plane
}

// FrustumParams describe a perspective viewing volume.
type FrustumParams struct {
	// FovY is the vertical field of view in radians.
	FovY float64
	// Aspect is width/height of the viewport.
	Aspect float64
	// Near and Far are the clip distances (0 < Near < Far).
	Near, Far float64
}

// DefaultFrustumParams matches the headset-class viewing volume used for
// the visibility analysis: 60° vertical FoV, 16:9, 10 cm to 30 m.
func DefaultFrustumParams() FrustumParams {
	return FrustumParams{FovY: Rad(60), Aspect: 16.0 / 9.0, Near: 0.1, Far: 30}
}

// NewFrustum builds the frustum for a viewer at the given pose.
func NewFrustum(pose Pose, p FrustumParams) Frustum {
	fwd := pose.Rot.Forward()
	up := pose.Rot.Up()
	right := pose.Rot.Right()
	eye := pose.Pos

	halfV := p.FovY / 2
	// Horizontal half-angle derived from the vertical one and the aspect.
	tanH := p.Aspect * tan(halfV)

	var f Frustum
	// Near plane faces forward, far plane faces backward.
	f.Planes[0] = PlaneFromPointNormal(eye.Add(fwd.Scale(p.Near)), fwd)
	f.Planes[1] = PlaneFromPointNormal(eye.Add(fwd.Scale(p.Far)), fwd.Neg())
	// Side planes pass through the eye with inward-tilted normals.
	f.Planes[2] = sidePlane(eye, fwd, right.Neg(), tanH)    // left
	f.Planes[3] = sidePlane(eye, fwd, right, tanH)          // right
	f.Planes[4] = sidePlane(eye, fwd, up, tan(halfV))       // top
	f.Planes[5] = sidePlane(eye, fwd, up.Neg(), tan(halfV)) // bottom
	return f
}

// sidePlane returns the inward-facing plane through eye whose boundary lies
// along the frustum edge in direction (axis*tanHalf + fwd): the plane normal
// is the inward normal of that slanted face.
func sidePlane(eye, fwd, axis Vec3, tanHalf float64) Plane {
	// Edge direction on this face.
	edge := fwd.Add(axis.Scale(tanHalf)).Norm()
	// Inward normal: component of -axis orthogonal to edge.
	n := axis.Neg().Sub(edge.Scale(axis.Neg().Dot(edge))).Norm()
	return PlaneFromPointNormal(eye, n)
}

func tan(x float64) float64 { return math.Tan(x) }

// ContainsPoint reports whether p is inside the frustum.
func (f Frustum) ContainsPoint(p Vec3) bool {
	for i := range f.Planes {
		if f.Planes[i].Dist(p) < 0 {
			return false
		}
	}
	return true
}

// IntersectsAABB reports whether the box is at least partially inside the
// frustum. This is the classic conservative plane test used by frustum
// culling: it may rarely report true for a box fully outside (near the
// frustum corners) but never reports false for a visible box, which is the
// safe direction for streaming (we would fetch slightly too much, never too
// little).
func (f Frustum) IntersectsAABB(b AABB) bool {
	for i := range f.Planes {
		pl := f.Planes[i]
		// p-vertex: box corner farthest along the plane normal.
		p := Vec3{
			X: pick(pl.Normal.X >= 0, b.Max.X, b.Min.X),
			Y: pick(pl.Normal.Y >= 0, b.Max.Y, b.Min.Y),
			Z: pick(pl.Normal.Z >= 0, b.Max.Z, b.Min.Z),
		}
		if pl.Dist(p) < 0 {
			return false
		}
	}
	return true
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}
