package codec

import (
	"encoding/binary"
	"math"
	"math/bits"

	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

// Content hashing for the encode/decode caches. Keys are 128 bits: two
// 64-bit lanes over the same word stream, the first plain FNV-1a, the
// second FNV-1a over a rotated input with a golden-ratio multiplier, so a
// collision requires both independent mixes to collide at once. Hashing
// is a single O(n) pass over machine words — orders of magnitude cheaper
// than the encode/decode work a cache hit skips.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	goldenGamma = 0x9e3779b97f4a7c15
)

// hash128 accumulates the two key lanes word by word.
type hash128 struct {
	h1, h2 uint64
}

func newHash128() hash128 {
	return hash128{h1: fnvOffset64, h2: fnvOffset64 ^ goldenGamma}
}

func (h *hash128) word(v uint64) {
	h.h1 = (h.h1 ^ v) * fnvPrime64
	h.h2 = (h.h2 ^ bits.RotateLeft64(v, 29)) * goldenGamma
}

func (h *hash128) sum() CacheKey { return CacheKey{h.h1, h.h2} }

// HashBytes returns the content key of an encoded block payload.
func HashBytes(data []byte) CacheKey {
	h := newHash128()
	h.word(uint64(len(data)))
	for len(data) >= 8 {
		h.word(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	if len(data) > 0 {
		var tail uint64
		for i, b := range data {
			tail |= uint64(b) << (8 * i)
		}
		h.word(tail)
	}
	return h.sum()
}

// cellKey returns the content key of one cell-encode request: the encoder
// parameters, the cell identity and bounds, and the exact point data (bit
// patterns of the positions plus the colors) at the given indices. Two
// requests share a key iff they would produce byte-identical blocks.
func (e *Encoder) cellKey(id cell.ID, c *pointcloud.Cloud, idxs []int, b geom.AABB) CacheKey {
	h := newHash128()
	// The effective layer count, so one encode-tier entry serves every
	// tier of the cell and an unset Layers shares the one-layer entry.
	h.word(uint64(e.params.QuantBits) | uint64(e.layers())<<8 | uint64(id)<<16)
	h.word(math.Float64bits(b.Min.X))
	h.word(math.Float64bits(b.Min.Y))
	h.word(math.Float64bits(b.Min.Z))
	h.word(math.Float64bits(b.Max.X))
	h.word(math.Float64bits(b.Max.Y))
	h.word(math.Float64bits(b.Max.Z))
	h.word(uint64(len(idxs)))
	for _, i := range idxs {
		p := &c.Points[i]
		h.word(math.Float64bits(p.Pos.X))
		h.word(math.Float64bits(p.Pos.Y))
		h.word(math.Float64bits(p.Pos.Z))
		h.word(uint64(p.R)<<16 | uint64(p.G)<<8 | uint64(p.B))
	}
	return h.sum()
}
