// Package geom provides the 3D math substrate used throughout volcast:
// vectors, quaternions, 6DoF poses, axis-aligned boxes, planes and view
// frusta. Everything is float64 and allocation-free on the hot paths; the
// frustum-culling routines are the basis of viewport visibility computation
// (ViVo-style) and of the inter-user viewport-similarity analysis in the
// paper's Section 3.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector. X is right, Y is up, Z is forward unless a
// caller documents otherwise.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Norm returns v normalized to unit length. The zero vector is returned
// unchanged so callers never see NaNs.
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l == 0 {
		return Vec3{}
	}
	return v.Scale(1 / l)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Lerp linearly interpolates from v to w by t in [0,1].
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		v.X + (w.X-v.X)*t,
		v.Y + (w.Y-v.Y)*t,
		v.Z + (w.Z-v.Z)*t,
	}
}

// Min returns the component-wise minimum of v and w, bit-identical to
// math.Min on every component.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{minF(v.X, w.X), minF(v.Y, w.Y), minF(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w, bit-identical to
// math.Max on every component.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{maxF(v.X, w.X), maxF(v.Y, w.Y), maxF(v.Z, w.Z)}
}

// minF is math.Min with the ordered case inlined: on amd64 math.Min is an
// assembly call the compiler never inlines, and a bounds pass over a
// frame makes six of them a point. Equal operands (the ±0 rule) and NaN
// operands go to math.Min itself. The builtin min is no substitute: with
// a NaN operand it returns a different NaN, and min(−Inf, NaN) is NaN
// where math.Min gives −Inf.
func minF(x, y float64) float64 {
	if x < y {
		return x
	}
	if y < x {
		return y
	}
	return math.Min(x, y)
}

// maxF is math.Max with the ordered case inlined (see minF).
func maxF(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// ApproxEq reports whether v and w differ by at most eps in every component.
//
// Kept: the geom, pointcloud, predict and trace tests compare vectors
// with it.
func (v Vec3) ApproxEq(w Vec3, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps && math.Abs(v.Z-w.Z) <= eps
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }

// AzimuthElevation returns the azimuth (rotation in the XZ plane measured
// from +Z toward +X) and elevation (angle above the XZ plane) of direction
// v, both in radians. The mmWave beam model addresses directions this way.
func (v Vec3) AzimuthElevation() (az, el float64) {
	az = math.Atan2(v.X, v.Z)
	h := math.Hypot(v.X, v.Z)
	el = math.Atan2(v.Y, h)
	return az, el
}

// FromAzEl returns the unit direction with the given azimuth and elevation
// in radians (inverse of Vec3.AzimuthElevation).
func FromAzEl(az, el float64) Vec3 {
	ce := math.Cos(el)
	return Vec3{ce * math.Sin(az), math.Sin(el), ce * math.Cos(az)}
}

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
