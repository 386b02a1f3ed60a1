package geom

import (
	"fmt"
	"math"
)

// Quat is a rotation quaternion (W + Xi + Yj + Zk). Identity is {W: 1}.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdent returns the identity rotation.
func QuatIdent() Quat { return Quat{W: 1} }

// AxisAngle returns the quaternion rotating by angle radians around axis.
// The axis need not be normalized; a zero axis yields the identity.
func AxisAngle(axis Vec3, angle float64) Quat {
	n := axis.Norm()
	if n == (Vec3{}) {
		return QuatIdent()
	}
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: n.X * s, Y: n.Y * s, Z: n.Z * s}
}

// FromEuler builds a rotation from yaw (about Y), pitch (about X) and roll
// (about Z), applied in yaw→pitch→roll order, all in radians. This matches
// the 6DoF trace convention used by the viewport dataset.
func FromEuler(yaw, pitch, roll float64) Quat {
	qy := AxisAngle(Vec3{Y: 1}, yaw)
	qp := AxisAngle(Vec3{X: 1}, pitch)
	qr := AxisAngle(Vec3{Z: 1}, roll)
	return qy.Mul(qp).Mul(qr)
}

// Euler returns the yaw, pitch, roll angles (radians) of q, the inverse of
// FromEuler up to angle wrapping and gimbal ambiguity.
//
// Kept: it is the inverse TestEulerRoundTrip checks FromEuler against.
func (q Quat) Euler() (yaw, pitch, roll float64) {
	// Rotation matrix elements needed for yaw-pitch-roll extraction with
	// R = Ry(yaw) * Rx(pitch) * Rz(roll).
	m := q.mat()
	// pitch = asin(-m[1][2]) with our basis
	sp := -m[1][2]
	sp = Clamp(sp, -1, 1)
	pitch = math.Asin(sp)
	if math.Abs(sp) < 0.9999999 {
		yaw = math.Atan2(m[0][2], m[2][2])
		roll = math.Atan2(m[1][0], m[1][1])
	} else {
		// Gimbal lock: roll folded into yaw.
		yaw = math.Atan2(-m[2][0], m[0][0])
		roll = 0
	}
	return yaw, pitch, roll
}

// mat returns the 3x3 rotation matrix of q (row-major).
func (q Quat) mat() [3][3]float64 {
	x2, y2, z2 := q.X+q.X, q.Y+q.Y, q.Z+q.Z
	xx, yy, zz := q.X*x2, q.Y*y2, q.Z*z2
	xy, xz, yz := q.X*y2, q.X*z2, q.Y*z2
	wx, wy, wz := q.W*x2, q.W*y2, q.W*z2
	return [3][3]float64{
		{1 - (yy + zz), xy - wz, xz + wy},
		{xy + wz, 1 - (xx + zz), yz - wx},
		{xz - wy, yz + wx, 1 - (xx + yy)},
	}
}

// Mul returns the composition q * r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns q normalized to unit length; the zero quaternion becomes
// the identity.
func (q Quat) Norm() Quat {
	l := math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
	if l == 0 {
		return QuatIdent()
	}
	return Quat{q.W / l, q.X / l, q.Y / l, q.Z / l}
}

// Len returns the quaternion magnitude.
//
// Kept: the slerp test checks that a midpoint is unit length with it.
func (q Quat) Len() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Rotate applies the rotation q to vector v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q * (0,v) * q^-1, expanded to avoid quaternion temporaries.
	u := Vec3{q.X, q.Y, q.Z}
	s := q.W
	return u.Scale(2 * u.Dot(v)).
		Add(v.Scale(s*s - u.Dot(u))).
		Add(u.Cross(v).Scale(2 * s))
}

// Forward returns the unit forward direction (+Z rotated by q).
func (q Quat) Forward() Vec3 { return q.Rotate(Vec3{Z: 1}) }

// Up returns the unit up direction (+Y rotated by q).
func (q Quat) Up() Vec3 { return q.Rotate(Vec3{Y: 1}) }

// Right returns the unit right direction (+X rotated by q).
func (q Quat) Right() Vec3 { return q.Rotate(Vec3{X: 1}) }

// Dot returns the 4D dot product of q and r.
func (q Quat) Dot(r Quat) float64 {
	return q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z
}

// Slerp spherically interpolates from q to r by t in [0,1]. Both inputs
// should be unit quaternions; the shorter arc is taken.
func (q Quat) Slerp(r Quat, t float64) Quat {
	d := q.Dot(r)
	if d < 0 {
		r = Quat{-r.W, -r.X, -r.Y, -r.Z}
		d = -d
	}
	if d > 0.9995 {
		// Nearly parallel: fall back to normalized lerp.
		return Quat{
			q.W + (r.W-q.W)*t,
			q.X + (r.X-q.X)*t,
			q.Y + (r.Y-q.Y)*t,
			q.Z + (r.Z-q.Z)*t,
		}.Norm()
	}
	theta := math.Acos(Clamp(d, -1, 1))
	s := math.Sin(theta)
	a := math.Sin((1-t)*theta) / s
	b := math.Sin(t*theta) / s
	return Quat{
		a*q.W + b*r.W,
		a*q.X + b*r.X,
		a*q.Y + b*r.Y,
		a*q.Z + b*r.Z,
	}
}

// AngleTo returns the rotation angle in radians between q and r.
func (q Quat) AngleTo(r Quat) float64 {
	d := math.Abs(q.Norm().Dot(r.Norm()))
	return 2 * math.Acos(Clamp(d, 0, 1))
}

// LookRotation returns the rotation whose forward axis points along dir,
// with the roll chosen so the local up axis is as close to up as possible.
func LookRotation(dir, up Vec3) Quat {
	f := dir.Norm()
	if f == (Vec3{}) {
		return QuatIdent()
	}
	r := up.Cross(f).Norm()
	if r == (Vec3{}) {
		// dir is parallel to up; pick an arbitrary right axis.
		r = Vec3{X: 1}
		if math.Abs(f.X) > 0.9 {
			r = Vec3{Z: 1}
		}
		r = r.Sub(f.Scale(r.Dot(f))).Norm()
	}
	u := f.Cross(r)
	// Build quaternion from the orthonormal basis (r, u, f) as columns.
	m00, m01, m02 := r.X, u.X, f.X
	m10, m11, m12 := r.Y, u.Y, f.Y
	m20, m21, m22 := r.Z, u.Z, f.Z
	tr := m00 + m11 + m22
	var q Quat
	switch {
	case tr > 0:
		s := math.Sqrt(tr+1) * 2
		q = Quat{W: s / 4, X: (m21 - m12) / s, Y: (m02 - m20) / s, Z: (m10 - m01) / s}
	case m00 > m11 && m00 > m22:
		s := math.Sqrt(1+m00-m11-m22) * 2
		q = Quat{W: (m21 - m12) / s, X: s / 4, Y: (m01 + m10) / s, Z: (m02 + m20) / s}
	case m11 > m22:
		s := math.Sqrt(1+m11-m00-m22) * 2
		q = Quat{W: (m02 - m20) / s, X: (m01 + m10) / s, Y: s / 4, Z: (m12 + m21) / s}
	default:
		s := math.Sqrt(1+m22-m00-m11) * 2
		q = Quat{W: (m10 - m01) / s, X: (m02 + m20) / s, Y: (m12 + m21) / s, Z: s / 4}
	}
	return q.Norm()
}

// String implements fmt.Stringer.
func (q Quat) String() string {
	return fmt.Sprintf("quat(w=%.4g, %.4g, %.4g, %.4g)", q.W, q.X, q.Y, q.Z)
}
