// Package codec implements the per-cell point-cloud compression used in
// place of Google's Draco library. Each cell of a partitioned frame is
// encoded independently (the property the streaming system relies on for
// viewport-adaptive fetching and multicast): positions are quantized to a
// configurable bit depth inside the cell's bounding box and sorted in
// Morton order, colors are decorrelated to (G, R-G, B-G) and zigzag-varint
// coded with zero-run RLE.
//
// The serving format is the layered block (layered.go): an octree
// occupancy stream to a base depth plus one enhancement layer per further
// depth bit, nested so that every layer prefix decodes on its own — one
// encode serves every density rung. The flat formats remain for
// single-rung stores and comparison: Morton-delta varints, DFS octree
// occupancy bytes, the same range-coded, and an Auto mode that keeps the
// smallest of the three. Every encoder runs on one kernel over the sorted
// codes (encode.go, octree.go; DESIGN.md §15). The package also provides
// the decode-rate model that caps the client at the paper's measured
// 550K-points-at-30-FPS ceiling.
package codec

import (
	"errors"

	"volcast/internal/cell"
)

// Magic identifies an encoded cell block ("VC" for volcast).
const Magic uint16 = 0x5643

// Version is the current flat (single-layer) block format version.
const Version uint8 = 2

// VersionLayered is the layered block format version: a base layer plus
// enhancement layers, each adding one bit of octree depth, where any
// prefix of layers decodes on its own (see layered.go). The decoder
// dispatches on the version byte, so flat and layered blocks coexist on
// the wire.
const VersionLayered uint8 = 3

// Position-coding modes within a block.
const (
	// ModeMorton is delta-varint coding of Morton-sorted codes.
	ModeMorton uint8 = 0
	// ModeOctree is DFS occupancy-byte coding (G-PCC style).
	ModeOctree uint8 = 1
	// ModeOctreeAC is occupancy coding with context-adaptive binary
	// range coding (the full G-PCC-style position coder).
	ModeOctreeAC uint8 = 2
	// ModeLayered is the nested base+enhancement bitstream of
	// VersionLayered blocks: per-level occupancy slices plus color
	// residuals, decodable at any layer prefix.
	ModeLayered uint8 = 3
)

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
	// Octree selects occupancy-tree position coding instead of
	// Morton-delta (smaller when points are dense relative to the
	// quantization lattice; see TestOctreeMortonCrossover).
	Octree bool
	// Arithmetic adds context-adaptive range coding to the octree
	// occupancy stream (implies Octree).
	Arithmetic bool
	// Auto encodes each cell every way and keeps the smallest block
	// (≈3× encode cost, always-optimal size). Overrides Octree.
	Auto bool
	// Layers, when > 0, selects the layered progressive format
	// (VersionLayered): one encode yields a base layer at octree depth
	// QuantBits-Layers+1 plus Layers-1 enhancement layers of one extra
	// depth bit each, any prefix of which decodes on its own. Layers is
	// clamped to QuantBits. Overrides Octree/Arithmetic/Auto.
	Layers uint8
}

// DefaultParams returns the encoder configuration used throughout the
// experiments.
func DefaultParams() Params { return Params{QuantBits: 10} }

// Block is one encoded cell: the unit of transmission and of independent
// decode.
type Block struct {
	CellID cell.ID
	// NumPoints is the decoded point count (also recoverable from Data).
	// For layered blocks this is the full-prefix count; coarser tiers
	// decode fewer points (see LayerPoints).
	NumPoints int
	// Data is the encoded payload including header and checksum.
	Data []byte
	// LayerOffsets, for layered blocks, holds the cumulative end offset
	// in Data of each layer's segment: Data[:LayerOffsets[t]] is the
	// self-contained decodable prefix of t+1 layers. The final entry is
	// len(Data). Nil for flat (Version 2) blocks.
	LayerOffsets []int
	// LayerPoints, parallel to LayerOffsets, is the decoded point count
	// of each layer prefix; the final entry equals NumPoints.
	LayerPoints []int
}

// Size returns the encoded size in bytes.
func (b *Block) Size() int { return len(b.Data) }

// Layers returns the number of decodable layer prefixes: 1 for flat
// blocks, the encode-time layer count for layered blocks.
func (b *Block) Layers() int {
	if len(b.LayerOffsets) == 0 {
		return 1
	}
	return len(b.LayerOffsets)
}

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
// block shares the same backing buffer. Flat blocks return Data whole.
func (b *Block) Prefix(layers int) []byte {
	if len(b.LayerOffsets) == 0 {
		return b.Data
	}
	return b.Data[:b.LayerOffsets[b.clampLayers(layers)-1]]
}

// Delta returns the enhancement bytes that upgrade a held prefix of
// `from` layers to one of `to` layers — the only bytes a client already
// holding the `from`-prefix needs. Both arguments clamp to [1, Layers()];
// from >= to returns nil (no upgrade).
func (b *Block) Delta(from, to int) []byte {
	if len(b.LayerOffsets) == 0 {
		return nil
	}
	from, to = b.clampLayers(from), b.clampLayers(to)
	if from >= to {
		return nil
	}
	return b.Data[b.LayerOffsets[from-1]:b.LayerOffsets[to-1]]
}

// PointsAtTier returns the decoded point count of the `layers`-prefix,
// clamped to [1, Layers()]. Flat blocks return NumPoints.
func (b *Block) PointsAtTier(layers int) int {
	if len(b.LayerPoints) == 0 {
		return b.NumPoints
	}
	return b.LayerPoints[b.clampLayers(layers)-1]
}

// TierView returns a Block presenting only the first `layers` layers:
// its Data is the corresponding prefix of b.Data (shared, not copied —
// every tier view of a block aliases one buffer) and its point count is
// the tier's. Requesting every layer (or viewing a flat block) returns b
// itself.
func (b *Block) TierView(layers int) *Block {
	if len(b.LayerOffsets) == 0 || b.clampLayers(layers) == b.Layers() {
		return b
	}
	layers = b.clampLayers(layers)
	return &Block{
		CellID:       b.CellID,
		NumPoints:    b.LayerPoints[layers-1],
		Data:         b.Data[:b.LayerOffsets[layers-1]],
		LayerOffsets: b.LayerOffsets[:layers],
		LayerPoints:  b.LayerPoints[:layers],
	}
}
