package phy

import "math"

// pow10 is the link equation's dBm → mW conversion (DESIGN.md §14): Go's
// own math.Pow algorithm (src/math/pow.go) specialised to the base 10,
// bit-identical to math.Pow(10, y). The stdlib splits |y| into integer
// and fractional parts, takes 10^frac as Exp(frac·Log(10)) and 10^int by
// repeated squaring of Frexp(10), then joins them with Ldexp. Here Log(10)
// is computed once, and the squaring ladder is tabulated once by the same
// float operations in the same order, so a call keeps only the Modf, the
// Exp, one multiply per set bit of the integer part and the Ldexp.
//
// The special cases the stdlib answers before its main path (NaN, ±Inf,
// ±0.5) and |y| past the tabulated ladder go to math.Pow itself.

// pow10Max bounds |y| for the tabulated path: its integer part, rounded up
// with the fraction, then has at most len(pow10Ladder) bits, and the
// ladder's exponents stay far below the 1<<12 at which the stdlib cuts its
// loop short. 10^±512 is already past the float64 range either way.
const pow10Max = 512

// ln10 is math.Log(10), the Log the stdlib evaluates on every call.
var ln10 = math.Log(10)

// pow10Ladder[k] is Frexp(10^(2^k)) as the stdlib's squaring loop carries
// it: mantissa in [0.5, 1) and binary exponent.
var pow10Ladder = func() (ladder [10]struct {
	frac float64
	exp  int
}) {
	x1, xe := math.Frexp(10)
	for k := range ladder {
		ladder[k].frac, ladder[k].exp = x1, xe
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return ladder
}()

// pow10 returns math.Pow(10, y), the same bits.
//
//vollint:hotpath
func pow10(y float64) float64 {
	if !(math.Abs(y) < pow10Max) || y == 0.5 || y == -0.5 {
		return math.Pow(10, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	a1 := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}
	ae := 0
	for i, k := int64(yi), 0; i != 0; i, k = i>>1, k+1 {
		if i&1 == 1 {
			a1 *= pow10Ladder[k].frac
			ae += pow10Ladder[k].exp
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
