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
//
//vollint:hotpath
func sinPos(x float64) float64 {
	s, _ := sincosPos(x)
	return s
}

// sincosPos returns math.Sin(x), math.Cos(x) for finite 0 ≤ x < 2^29
// without branching.
//
//vollint:hotpath
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
