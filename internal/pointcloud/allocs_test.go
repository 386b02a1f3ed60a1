package pointcloud

import (
	"math"
	"testing"
)

// TestHotPathAllocs holds the generator's trigonometry to zero
// allocations: the exact sines across octants, the table sine, and the
// shade on both its paths — the approximation trusted, and a shade on an
// integer (h = θ = 0 gives exactly 12), where it recomputes exactly.
func TestHotPathAllocs(t *testing.T) {
	const x = 5.5 // octant 7
	rows := []struct {
		name string
		// run reports whether the result is the one the row is about;
		// each row must report true.
		run func() bool
	}{
		{"sinPos", func() bool { return sinPos(x) == math.Sin(x) }},
		{"sincosPos", func() bool { s, c := sincosPos(2.5); return s == math.Sin(2.5) && c == math.Cos(2.5) }},
		{"sinNear", func() bool { return math.Abs(sinNear(x)-math.Sin(x)) <= sinNearBound }},
		{"shadeOf", func() bool { v, _ := nearShade(0.3, 1.1); return shadeOf(0.3, 1.1) == uint8(v) && !nearInteger(v) }},
		{"shadeOf/exact", func() bool { return shadeOf(0, 0) == 12 }},
		{"nearInteger", func() bool { return nearInteger(12) && !nearInteger(12.5) }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if !r.run() {
				t.Fatalf("%s did not take its branch", r.name)
			}
			if a := testing.AllocsPerRun(100, func() { r.run() }); a != 0 {
				t.Errorf("%s allocates %v per call, want 0", r.name, a)
			}
		})
	}
}
