package geom

import (
	"math"
	"math/rand"
	"testing"
)

func lookingDownZ() Pose {
	return Pose{Pos: V(0, 0, 0), Rot: QuatIdent()} // forward = +Z
}

func TestFrustumContainsAhead(t *testing.T) {
	f := NewFrustum(lookingDownZ(), DefaultFrustumParams())
	if !f.ContainsPoint(V(0, 0, 5)) {
		t.Error("point straight ahead not contained")
	}
	if f.ContainsPoint(V(0, 0, -5)) {
		t.Error("point behind contained")
	}
	if f.ContainsPoint(V(0, 0, 0.01)) {
		t.Error("point before near plane contained")
	}
	if f.ContainsPoint(V(0, 0, 50)) {
		t.Error("point past far plane contained")
	}
}

func TestFrustumFovBoundary(t *testing.T) {
	p := DefaultFrustumParams()
	f := NewFrustum(lookingDownZ(), p)
	d := 10.0
	tanV := math.Tan(p.FovY / 2)
	tanH := p.Aspect * tanV
	// Just inside the horizontal boundary.
	if !f.ContainsPoint(V(d*tanH*0.99, 0, d)) {
		t.Error("point just inside horizontal FoV rejected")
	}
	if f.ContainsPoint(V(d*tanH*1.01, 0, d)) {
		t.Error("point just outside horizontal FoV accepted")
	}
	// Vertical boundary.
	if !f.ContainsPoint(V(0, d*tanV*0.99, d)) {
		t.Error("point just inside vertical FoV rejected")
	}
	if f.ContainsPoint(V(0, d*tanV*1.01, d)) {
		t.Error("point just outside vertical FoV accepted")
	}
}

func TestFrustumRotated(t *testing.T) {
	pose := Pose{Pos: V(1, 2, 3), Rot: AxisAngle(V(0, 1, 0), math.Pi/2)} // facing +X
	f := NewFrustum(pose, DefaultFrustumParams())
	if !f.ContainsPoint(V(6, 2, 3)) {
		t.Error("point ahead of rotated viewer rejected")
	}
	if f.ContainsPoint(V(1, 2, 8)) {
		t.Error("point to the side of rotated viewer accepted")
	}
}

func TestFrustumAABB(t *testing.T) {
	f := NewFrustum(lookingDownZ(), DefaultFrustumParams())
	inside := NewAABB(V(-0.5, -0.5, 4), V(0.5, 0.5, 5))
	if !f.IntersectsAABB(inside) {
		t.Error("box ahead not intersecting")
	}
	behind := NewAABB(V(-0.5, -0.5, -5), V(0.5, 0.5, -4))
	if f.IntersectsAABB(behind) {
		t.Error("box behind intersecting")
	}
	// Box straddling the near plane intersects.
	strad := NewAABB(V(-0.1, -0.1, -0.5), V(0.1, 0.1, 0.5))
	if !f.IntersectsAABB(strad) {
		t.Error("straddling box not intersecting")
	}
	// Large box containing whole frustum intersects.
	big := NewAABB(V(-100, -100, -100), V(100, 100, 100))
	if !f.IntersectsAABB(big) {
		t.Error("enclosing box not intersecting")
	}
}

// Property: any box containing a point inside the frustum must intersect
// the frustum (conservativeness guarantee, the safe direction for
// streaming visibility).
func TestFrustumAABBConservative(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := NewFrustum(lookingDownZ(), DefaultFrustumParams())
	for i := 0; i < 1000; i++ {
		p := V(r.Float64()*40-20, r.Float64()*40-20, r.Float64()*40-5)
		if !f.ContainsPoint(p) {
			continue
		}
		half := V(r.Float64()+0.01, r.Float64()+0.01, r.Float64()+0.01)
		b := AABB{Min: p.Sub(half), Max: p.Add(half)}
		if !f.IntersectsAABB(b) {
			t.Fatalf("box around inside point %v reported outside", p)
		}
	}
}

func TestAABBBasics(t *testing.T) {
	b := NewAABB(V(2, 3, 4), V(-1, 0, 1)) // unordered corners
	if b.Min != V(-1, 0, 1) || b.Max != V(2, 3, 4) {
		t.Fatalf("NewAABB did not order corners: %v", b)
	}
	if c := b.Center(); !c.ApproxEq(V(0.5, 1.5, 2.5), eps) {
		t.Errorf("Center = %v", c)
	}
	if s := b.Size(); !s.ApproxEq(V(3, 3, 3), eps) {
		t.Errorf("Size = %v", s)
	}
	if !b.Contains(V(0, 1, 2)) || b.Contains(V(5, 5, 5)) {
		t.Error("Contains misbehaves")
	}
	u := b.Union(NewAABB(V(10, 10, 10), V(11, 11, 11)))
	if u.Max != V(11, 11, 11) || u.Min != V(-1, 0, 1) {
		t.Errorf("Union = %v", u)
	}
	e := b.Expand(1)
	if e.Min != V(-2, -1, 0) || e.Max != V(3, 4, 5) {
		t.Errorf("Expand = %v", e)
	}
}

func TestPlaneDist(t *testing.T) {
	pl := PlaneFromPointNormal(V(0, 0, 5), V(0, 0, 1))
	if d := pl.Dist(V(0, 0, 7)); math.Abs(d-2) > eps {
		t.Errorf("Dist = %v, want 2", d)
	}
	if d := pl.Dist(V(3, -4, 3)); math.Abs(d+2) > eps {
		t.Errorf("Dist = %v, want -2", d)
	}
}

func TestPoseLerp(t *testing.T) {
	a := Pose{Pos: V(0, 0, 0), Rot: QuatIdent()}
	b := Pose{Pos: V(2, 0, 0), Rot: AxisAngle(V(0, 1, 0), math.Pi/2)}
	m := a.Lerp(b, 0.5)
	if !m.Pos.ApproxEq(V(1, 0, 0), eps) {
		t.Errorf("Lerp pos = %v", m.Pos)
	}
	if m.Rot.AngleTo(AxisAngle(V(0, 1, 0), math.Pi/4)) > 1e-9 {
		t.Errorf("Lerp rot = %v", m.Rot)
	}
}

func BenchmarkFrustumCullAABB(b *testing.B) {
	f := NewFrustum(lookingDownZ(), DefaultFrustumParams())
	boxes := make([]AABB, 512)
	r := rand.New(rand.NewSource(3))
	for i := range boxes {
		c := V(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
		boxes[i] = AABB{Min: c.Sub(V(0.25, 0.25, 0.25)), Max: c.Add(V(0.25, 0.25, 0.25))}
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if f.IntersectsAABB(boxes[i%len(boxes)]) {
			n++
		}
	}
	_ = n
}
