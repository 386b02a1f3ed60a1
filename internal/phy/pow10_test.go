package phy

import (
	"math"
	"math/rand"
	"testing"
)

func samePow10(t *testing.T, y float64) {
	t.Helper()
	if got, want := math.Float64bits(pow10(y)), math.Float64bits(math.Pow(10, y)); got != want {
		t.Fatalf("pow10(%v) = %#x (%v), math.Pow %#x (%v)", y, got, pow10(y), want, math.Pow(10, y))
	}
}

// TestPow10MatchesMath checks the kernel against math.Pow(10, y) by bits:
// the stdlib's special cases, every integer and half-integer across the
// float64 range and past the kernel's bound (where the fraction rounds
// the integer part up, and where it does not), fractions either side of
// one half, subnormals, the bound itself, and six million seeded points —
// five in the link equation's range (dBm/10 of anything a link sees) and
// one over the whole tabulated domain.
func TestPow10MatchesMath(t *testing.T) {
	for _, y := range []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2, -2,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		0x1p-1022, -0x1p-1022, 1e-300, -1e-300,
		math.MaxFloat64, -math.MaxFloat64, 1 << 63, -(1 << 63),
		308.25, 308.2547, 308.26, -307.5, -323.3, -323.31, -324, -330,
	} {
		samePow10(t, y)
	}
	for _, b := range []float64{pow10Max, pow10Max - 0.5, pow10Max - 1} {
		for _, y := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			samePow10(t, y)
			samePow10(t, -y)
		}
	}
	for k := -700; k <= 700; k++ {
		y := float64(k)
		samePow10(t, y)
		samePow10(t, y+0.5)
		samePow10(t, y+math.Nextafter(0.5, 0))
		samePow10(t, y+math.Nextafter(0.5, 1))
		samePow10(t, math.Nextafter(y, math.Inf(1)))
		samePow10(t, math.Nextafter(y, math.Inf(-1)))
	}
	n := 5_000_000
	if testing.Short() {
		n = 500_000
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		samePow10(t, r.Float64()*30-25)
	}
	for i := 0; i < n/5; i++ {
		samePow10(t, (r.Float64()*2-1)*pow10Max)
	}
}

// FuzzPow10MatchesMath requires math.Pow(10, y)'s bits for any y. Its
// seed corpus (testdata/fuzz) is replayed by plain go test, so a toolchain
// whose math.Pow no longer matches the algorithm the kernel copies fails
// here first.
func FuzzPow10MatchesMath(f *testing.F) {
	f.Fuzz(func(t *testing.T, y float64) { samePow10(t, y) })
}

// BenchmarkPow10 times the kernel beside math.Pow(10, y) over link
// equation exponents.
func BenchmarkPow10(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ys := make([]float64, 1024)
	for i := range ys {
		ys[i] = r.Float64()*30 - 25
	}
	var sink float64
	b.Run("pow10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += pow10(ys[i&1023])
		}
	})
	b.Run("math.Pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += math.Pow(10, ys[i&1023])
		}
	})
	_ = sink
}
