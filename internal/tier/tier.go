// Package tier maps the density-stride ladder onto layered-codec tiers.
// Historically every rung of the ladder was a separate encode (stride-n
// index subsampling); with the layered codec one encode carries every
// rung and a rung is just a layer-prefix length. This package is the one
// place that owns the stride↔rung↔layer arithmetic, including the
// clamping that keeps degraded strides representable on the wire
// (wire.CellData.Stride is a uint8 — an unclamped stride<<degrade used
// to silently wrap).
package tier

// Ladder is a prepared density ladder: ascending unique strides, the
// first of which is 1 (full density). Rung r serves stride Strides()[r];
// rung 0 is densest. With a layered block of Rungs() layers, rung r
// decodes the prefix of Rungs()-r layers.
type Ladder struct {
	strides []int
}

// New builds a ladder over the prepared strides, which must be sorted
// ascending, unique and start at 1 (vivo.BuildStore's invariant). New
// copies the slice.
func New(strides []int) Ladder {
	return Ladder{strides: append([]int(nil), strides...)}
}

// Rungs returns the ladder depth.
func (l Ladder) Rungs() int { return len(l.strides) }

// Strides returns a copy of the prepared strides.
func (l Ladder) Strides() []int { return append([]int(nil), l.strides...) }

// StrideAt returns the stride of rung r, clamping r into range.
func (l Ladder) StrideAt(r int) int {
	if r < 0 {
		r = 0
	}
	if r >= len(l.strides) {
		r = len(l.strides) - 1
	}
	return l.strides[r]
}

// RungFor maps an arbitrary requested stride to the closest prepared
// rung (ties resolve to the denser rung, matching the store's historical
// nearestStride).
func (l Ladder) RungFor(stride int) int {
	best := 0
	bestD := abs(stride - l.strides[0])
	for r := 1; r < len(l.strides); r++ {
		if d := abs(stride - l.strides[r]); d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// LayersFor returns the layer-prefix length rung r consumes from a block
// of `layers` layers: coarser rungs take shorter prefixes, and a block
// with fewer layers than the ladder has rungs saturates at its base
// layer. The result is always within [1, layers] for layers >= 1.
func (l Ladder) LayersFor(r int, layers int) int {
	if r < 0 {
		r = 0
	}
	if r >= len(l.strides) {
		r = len(l.strides) - 1
	}
	n := layers - r
	if n < 1 {
		n = 1
	}
	if n > layers {
		n = layers
	}
	return n
}

// MaxDegrade bounds the degrade level a receiver can be moved to (stride
// ×8): the hub's queue-driven adapt and the simulator's rate controller
// both stop here.
const MaxDegrade = 3

// maxShift bounds degrade shifts so stride<<degrade cannot overflow int.
const maxShift = 16

// Degrade applies a hub degrade level to a requested stride: the stride
// doubles per level but saturates at the coarsest prepared rung instead
// of shifting past it (the historical code shifted into an int and
// truncated into the wire's uint8, silently wrapping at high degrade).
// It reports the effective stride and whether saturation kicked in.
func (l Ladder) Degrade(stride, degrade int) (eff int, clamped bool) {
	if stride < 1 {
		stride = 1
	}
	max := l.strides[len(l.strides)-1]
	if degrade < 0 {
		degrade = 0
	}
	if degrade > maxShift {
		degrade, clamped = maxShift, true
	}
	eff = stride << degrade
	if eff > max || eff < stride { // < catches any residual overflow
		return max, true
	}
	return eff, clamped
}

// WireStride narrows a stride for the wire's uint8 field, saturating at
// 255 instead of wrapping.
func WireStride(stride int) uint8 {
	if stride < 0 {
		return 0
	}
	if stride > 255 {
		return 255
	}
	return uint8(stride)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
