// Package codec implements the per-cell point-cloud compression used in
// place of Google's Draco library. Each cell of a partitioned frame is
// encoded independently (the property the streaming system relies on for
// viewport-adaptive fetching and multicast) into one block format: the
// cell's points are floor-quantized to a configurable bit depth inside
// the cell's bounding box and sorted in Morton order; an octree occupancy
// stream carries them to a base depth and one enhancement layer per
// further depth bit refines it, nested so that every layer prefix decodes
// on its own — one encode serves every density rung. Colors are
// decorrelated to (G, R-G, B-G) and zigzag-varint coded with zero-run
// RLE. The encoder is one kernel over the sorted codes (encode.go,
// octree.go; DESIGN.md §13, §15) and the decoder one kernel back to
// points — an iterative occupancy walk, one expansion pass per plane per
// layer, one emit loop (decode.go, octree.go; DESIGN.md §16). The
// package also provides the decode-rate model that caps the client at
// the paper's measured 550K-points-at-30-FPS ceiling.
package codec

import (
	"errors"

	"volcast/internal/cell"
)

// Magic identifies an encoded cell block ("VC" for volcast).
const Magic uint16 = 0x5643

// VersionLayered is the block format version: a base layer plus
// enhancement layers, each adding one bit of octree depth, where any
// prefix of layers decodes on its own (layout in encode.go). It is the
// only version the decoder accepts.
const VersionLayered uint8 = 3

// ModeLayered is the position-coding mode byte of every block: per-level
// occupancy slices plus color residuals, decodable at any layer prefix.
const ModeLayered uint8 = 3

// Errors returned by the decoder.
var (
	ErrBadMagic    = errors.New("codec: bad magic")
	ErrBadVersion  = errors.New("codec: unsupported version")
	ErrTruncated   = errors.New("codec: truncated block")
	ErrChecksum    = errors.New("codec: checksum mismatch")
	ErrBadGeometry = errors.New("codec: invalid geometry header")
)

// CacheKey is a 128-bit content address: two independently mixed 64-bit
// FNV-style hashes over the same input (see hash.go). Cell content and
// block bytes are addressed by CacheKey in the optional encode/decode
// caches (internal/blockcache implements them).
type CacheKey [2]uint64

// BlockCache memoizes encoded blocks by cell-content key. Block either
// returns the cached block for key or invokes encode, stores the result
// and returns it. Implementations must be safe for concurrent use and
// should deduplicate concurrent encodes of the same key. Cached blocks
// are shared between callers and must be treated as immutable.
type BlockCache interface {
	Block(key CacheKey, encode func() *Block) *Block
}

// CellCache memoizes decoded cells by block-content key. Cell either
// returns the cached cell for key or invokes decode, stores a successful
// result and returns it (errors are never cached). Implementations must
// be safe for concurrent use and should deduplicate concurrent decodes
// of the same key. Cached cells are shared between callers and must be
// treated as immutable.
type CellCache interface {
	Cell(key CacheKey, decode func() (*DecodedCell, error)) (*DecodedCell, error)
}

// Params configure the encoder.
type Params struct {
	// QuantBits is the per-axis position quantization depth inside a cell
	// (1..16). 10 bits in a 50 cm cell ≈ 0.5 mm resolution, comparable to
	// Draco's defaults for this content.
	QuantBits uint8
	// Layers is the number of nested layers one encode yields: a base
	// layer at octree depth QuantBits-Layers+1 plus Layers-1 enhancement
	// layers of one extra depth bit each, any prefix of which decodes on
	// its own. Zero means unset and encodes a single layer (Encoder.Layered
	// may still set it); Layers is clamped to QuantBits.
	Layers uint8
}

// DefaultParams returns the encoder configuration used throughout the
// experiments.
func DefaultParams() Params { return Params{QuantBits: 10} }

// Block is one encoded cell: the unit of transmission and of independent
// decode.
type Block struct {
	CellID cell.ID
	// NumPoints is the decoded point count of Data (also recoverable from
	// it); coarser tiers decode fewer points (see LayerPoints).
	NumPoints int
	// Data is the encoded payload including header and checksums.
	Data []byte
	// LayerOffsets holds the cumulative end offset in Data of each layer's
	// segment: Data[:LayerOffsets[t]] is the self-contained decodable
	// prefix of t+1 layers. The final entry is len(Data).
	LayerOffsets []int
	// LayerPoints, parallel to LayerOffsets, is the decoded point count
	// of each layer prefix; the final entry equals NumPoints.
	LayerPoints []int
}

// Size returns the encoded size in bytes.
func (b *Block) Size() int { return len(b.Data) }

// Layers returns the number of decodable layer prefixes.
func (b *Block) Layers() int { return len(b.LayerOffsets) }

// clampLayers maps a requested prefix length onto [1, Layers()].
func (b *Block) clampLayers(layers int) int {
	if layers < 1 {
		return 1
	}
	if n := b.Layers(); layers > n {
		return n
	}
	return layers
}

// Prefix returns the decodable prefix of the first `layers` layers,
// clamped to [1, Layers()]. The slice aliases Data — every tier of one
// block shares the same backing buffer.
func (b *Block) Prefix(layers int) []byte {
	return b.Data[:b.LayerOffsets[b.clampLayers(layers)-1]]
}

// Delta returns the enhancement bytes that upgrade a held prefix of
// `from` layers to one of `to` layers — the only bytes a client already
// holding the `from`-prefix needs. Both arguments clamp to [1, Layers()];
// from >= to returns nil (no upgrade).
func (b *Block) Delta(from, to int) []byte {
	from, to = b.clampLayers(from), b.clampLayers(to)
	if from >= to {
		return nil
	}
	return b.Data[b.LayerOffsets[from-1]:b.LayerOffsets[to-1]]
}

// PointsAtTier returns the decoded point count of the `layers`-prefix,
// clamped to [1, Layers()].
func (b *Block) PointsAtTier(layers int) int {
	return b.LayerPoints[b.clampLayers(layers)-1]
}

// TierView returns a Block presenting only the first `layers` layers:
// its Data is the corresponding prefix of b.Data (shared, not copied —
// every tier view of a block aliases one buffer) and its point count is
// the tier's. Requesting every layer returns b itself.
func (b *Block) TierView(layers int) *Block {
	layers = b.clampLayers(layers)
	if layers == b.Layers() {
		return b
	}
	return &Block{
		CellID:       b.CellID,
		NumPoints:    b.LayerPoints[layers-1],
		Data:         b.Data[:b.LayerOffsets[layers-1]],
		LayerOffsets: b.LayerOffsets[:layers],
		LayerPoints:  b.LayerPoints[:layers],
	}
}
