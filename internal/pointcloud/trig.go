package pointcloud

import "math"

// sinPos and sincosPos are the generator's trigonometry (DESIGN.md §18):
// Go's own sin/cos algorithm (src/math/sin.go, sincos.go — Cody–Waite
// reduction by π/4 in three parts, the Cephes _sin/_cos minimax
// polynomials), bit-identical to math.Sin/math.Cos for finite
// 0 ≤ x < 2^29, where the stdlib takes the same path. The stdlib branches
// on the octant of x three times; for the generator's uniformly random
// angles those branches mispredict about half the time, so here both
// polynomials are always evaluated and the octant's swap and sign are
// applied to the bit patterns. Outside the domain (negative, ≥ 2^29, NaN,
// ±Inf) the result is unspecified; -0 returns +0.

// Pi/4 split into three parts, and the polynomial coefficients: copied
// from src/math/sin.go.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
)

var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// sinPos returns math.Sin(x) for finite 0 ≤ x < 2^29 without branching.
func sinPos(x float64) float64 {
	s, _ := sincosPos(x)
	return s
}

// sincosPos returns math.Sin(x), math.Cos(x) for finite 0 ≤ x < 2^29
// without branching.
func sincosPos(x float64) (sin, cos float64) {
	j := uint64(x * (4 / math.Pi))
	j += j & 1 // map odd octants up to the next zero, as the stdlib does
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C
	zz := z * z
	c := math.Float64bits(1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5]))
	s := math.Float64bits(z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5]))
	// Octants 2 and 6 swap the polynomials: bit 1 of j, widened to a mask.
	// Octants 4 and 6 negate the sine (bit 2), 2 and 4 the cosine (bit 2
	// XOR bit 1).
	d := (s ^ c) & -(j >> 1 & 1)
	s, c = s^d, c^d
	return math.Float64frombits(s ^ (j>>2&1)<<63), math.Float64frombits(c ^ (j>>2^j>>1)&1<<63)
}

// The shade (DESIGN.md §18) reaches the output only through its uint8
// conversion, so its two sines need not be exact: sinNear is within
// sinNearBound of sinPos over [0, sinNearTop], and shadeOf trusts a shade
// computed from it unless that value lies within shadeGuard of an integer,
// where it recomputes the shade with sinPos. The shade is then the exact
// expression's, bit for bit, for every (h, θ) the generator draws.

// sinNearScale is sinNear's node count per unit, a power of two, so a node
// k/sinNearScale and a point's offset from its nearest node are exact.
// sinNearTop is the top of its domain: the generator's arguments are
// 8h+3θ < 8+6π and 40h < 40.
const (
	sinNearScale = 32
	sinNearTop   = 40
)

// sinNearTab holds sin and cos at the nodes k/sinNearScale, k = 0 … 1280.
var sinNearTab = func() (t [sinNearTop*sinNearScale + 1][2]float64) {
	for k := range t {
		t[k][0], t[k][1] = math.Sincos(float64(k) / sinNearScale)
	}
	return t
}()

// sinNearBound bounds |sinNear(x) − sinPos(x)| over [0, sinNearTop], and
// shadeBound the difference it makes to the shade's value (DESIGN.md §18
// derives both); shadeGuard is the distance from an integer inside which
// shadeOf recomputes exactly. shadeBound ≪ shadeGuard.
const (
	sinNearBound = 2.2e-14
	shadeBound   = 4e-13
	shadeGuard   = 1e-9
)

// sinNear approximates sin(x) for 0 ≤ x ≤ sinNearTop to within
// sinNearBound: the nearest node's sin and cos, and Taylor polynomials of
// the offset d (|d| ≤ 1/64) in the angle-sum formula. Outside that domain
// the result is unspecified, or the table index panics.
func sinNear(x float64) float64 {
	k := int(x*sinNearScale + 0.5)
	d := x - float64(k)*(1.0/sinNearScale)
	n := &sinNearTab[k]
	dd := d * d
	return n[0]*(1-dd*(1.0/2-dd*(1.0/24))) + n[1]*d*(1-dd*(1.0/6-dd*(1.0/120)))
}

// shadeOf returns uint8(12 + 11*sinPos(8*h+3*theta) + 4*sinPos(40*h)), the
// sampler's shade, for 0 ≤ h < 1 and 0 ≤ theta < 2π. The value computed
// with sinNear is within shadeBound of that expression's; unless it lies
// within shadeGuard of an integer, both lie strictly between the same two
// integers and truncate alike. Otherwise the exact expression is computed.
func shadeOf(h, theta float64) uint8 {
	v := 12 + 11*sinNear(8*h+3*theta) + 4*sinNear(40*h)
	if nearInteger(v) {
		v = 12 + 11*sinPos(8*h+3*theta) + 4*sinPos(40*h)
	}
	return uint8(v)
}

// nearInteger reports whether v lies within shadeGuard of an integer.
func nearInteger(v float64) bool {
	f := v - math.Floor(v)
	return f < shadeGuard || f > 1-shadeGuard
}
