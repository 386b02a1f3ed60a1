package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestVecCrossOrthogonal(t *testing.T) {
	a := V(1, 0, 0)
	b := V(0, 1, 0)
	if got := a.Cross(b); !got.ApproxEq(V(0, 0, 1), eps) {
		t.Errorf("X cross Y = %v, want Z", got)
	}
	c := V(2.5, -1, 7).Cross(V(0.3, 4, -2))
	if math.Abs(c.Dot(V(2.5, -1, 7))) > 1e-9 || math.Abs(c.Dot(V(0.3, 4, -2))) > 1e-9 {
		t.Errorf("cross product not orthogonal to inputs: %v", c)
	}
}

func TestVecNorm(t *testing.T) {
	if got := V(3, 0, 4).Norm(); !got.ApproxEq(V(0.6, 0, 0.8), eps) {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{}).Norm(); got != (Vec3{}) {
		t.Errorf("Norm of zero = %v, want zero", got)
	}
	if got := V(3, 0, 4).Len(); math.Abs(got-5) > eps {
		t.Errorf("Len = %v", got)
	}
}

func TestVecDist(t *testing.T) {
	a, b := V(1, 1, 1), V(4, 5, 1)
	if d := a.Dist(b); math.Abs(d-5) > eps {
		t.Errorf("Dist = %v, want 5", d)
	}
}

func TestVecLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(10, -10, 2)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); !got.ApproxEq(V(5, -5, 1), eps) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVecMinMaxAbs(t *testing.T) {
	a, b := V(1, -2, 3), V(-1, 5, 2)
	if got := a.Min(b); got != V(-1, -2, 2) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(1, 5, 3) {
		t.Errorf("Max = %v", got)
	}
}

// TestMinMaxMatchMath holds Vec3.Min/Max to math.Min/math.Max bit for bit,
// on every component: the special values in every pairing (both zeros,
// NaNs of two payloads and signs, both infinities, subnormals, the
// extremes) and a million seeded pairs, a tenth of them ties.
func TestMinMaxMatchMath(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000123),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	check := func(x, y float64) {
		t.Helper()
		// Each pair goes through every lane, so no component is left out.
		for lane := 0; lane < 3; lane++ {
			a, b := onLane(lane, x), onLane(lane, y)
			if got, want := laneOf(a.Min(b), lane), math.Min(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Min lane %d (%v, %v) = %#x, math.Min %#x", lane, x, y, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := laneOf(a.Max(b), lane), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Max lane %d (%v, %v) = %#x, math.Max %#x", lane, x, y, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	for _, x := range specials {
		for _, y := range specials {
			check(x, y)
		}
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 1_000_000; i++ {
		x := math.Float64frombits(r.Uint64())
		y := math.Float64frombits(r.Uint64())
		if i%10 == 0 {
			y = x
		}
		check(x, y)
	}
}

// onLane returns the vector with x in component i (0 = X, 1 = Y, 2 = Z)
// and zeros elsewhere; laneOf reads component i back.
func onLane(i int, x float64) Vec3 {
	return [3]Vec3{{X: x}, {Y: x}, {Z: x}}[i]
}

func laneOf(v Vec3, i int) float64 {
	return [3]float64{v.X, v.Y, v.Z}[i]
}

func TestAzimuthElevationRoundTrip(t *testing.T) {
	cases := []struct{ az, el float64 }{
		{0, 0}, {math.Pi / 4, 0}, {0, math.Pi / 4},
		{-math.Pi / 3, 0.2}, {2.5, -1.0},
	}
	for _, c := range cases {
		v := FromAzEl(c.az, c.el)
		if math.Abs(v.Len()-1) > eps {
			t.Errorf("FromAzEl(%v,%v) not unit: %v", c.az, c.el, v.Len())
		}
		az, el := v.AzimuthElevation()
		if math.Abs(az-c.az) > 1e-9 || math.Abs(el-c.el) > 1e-9 {
			t.Errorf("round trip (%v,%v) -> (%v,%v)", c.az, c.el, az, el)
		}
	}
}

func TestClampDegRad(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
	if math.Abs(Deg(math.Pi)-180) > eps {
		t.Errorf("Deg(pi) = %v", Deg(math.Pi))
	}
	if math.Abs(Rad(180)-math.Pi) > eps {
		t.Errorf("Rad(180) = %v", Rad(180))
	}
}

// randVec generates bounded random vectors for property tests.
func randVec(r *rand.Rand) Vec3 {
	return V(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
}

func TestPropertyCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		b := V(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
		c := a.Cross(b)
		scale := a.Len()*b.Len() + 1
		return math.Abs(c.Dot(a)) <= 1e-6*scale*scale && math.Abs(c.Dot(b)) <= 1e-6*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(math.Mod(ax, 1e3), math.Mod(ay, 1e3), math.Mod(az, 1e3))
		b := V(math.Mod(bx, 1e3), math.Mod(by, 1e3), math.Mod(bz, 1e3))
		return a.Add(b).Len() <= a.Len()+b.Len()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormIsUnit(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := randVec(r)
		if v == (Vec3{}) {
			continue
		}
		if got := v.Norm().Len(); math.Abs(got-1) > 1e-12 {
			t.Fatalf("Norm length %v for %v", got, v)
		}
	}
}
