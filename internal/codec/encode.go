package codec

import (
	"context"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
)

// Block layout (all multi-byte integers little-endian unless varint):
//
//	magic     uint16
//	version   uint8
//	quantBits uint8
//	mode      uint8          (ModeMorton | ModeOctree)
//	cellID    uvarint
//	numPoints uvarint
//	origin    3 × float32   (cell AABB min corner)
//	edge      float32       (cell edge length)
//	positions mode-dependent:
//	  Morton: numPoints × uvarint (delta of Morton-sorted codes)
//	  Octree: DFS occupancy bytes over the deduplicated codes, then a
//	          dup flag byte (1 → per-unique-code uvarint count-1 list)
//	colors    3 × numPoints × uvarint (zigzag delta + zero-run RLE,
//	          planar, decorrelated (G, R-G, B-G); point order is the
//	          Morton order in both modes)
//	crc32     uint32        (IEEE, over everything before it)

// qpoint is one quantized point: its Morton code and source index.
type qpoint struct {
	code uint64
	idx  int
}

// Encoder compresses cells of point-cloud frames. Encoder is stateless
// (apart from the optional cache) and safe for concurrent use.
type Encoder struct {
	params Params
	// Cache, when non-nil, memoizes encoded blocks by cell content so
	// byte-identical cells (temporally static cells across frames, or the
	// same cell encoded for several consumers) are encoded exactly once.
	// Cached blocks are shared and must not be mutated.
	Cache BlockCache
	// Trace, when non-nil, records frame-level encode spans (EncodeFrame).
	// Nil adds one pointer check to the hot path and nothing else.
	Trace *obs.Tracer
}

// NewEncoder returns an encoder with the given parameters; zero-value
// params are replaced by DefaultParams.
func NewEncoder(p Params) *Encoder {
	if p.QuantBits == 0 {
		q := p
		p = DefaultParams()
		p.Layers = q.Layers
	}
	if p.QuantBits > 16 {
		p.QuantBits = 16
	}
	if p.Layers > p.QuantBits {
		p.Layers = p.QuantBits
	}
	return &Encoder{params: p}
}

// Params returns the encoder's parameters.
func (e *Encoder) Params() Params { return e.params }

// Cached returns a copy of the encoder that memoizes blocks in c. A nil
// cache returns the encoder unchanged.
func (e *Encoder) Cached(c BlockCache) *Encoder {
	if c == nil {
		return e
	}
	cp := *e
	cp.Cache = c
	return &cp
}

// Layered returns a copy of the encoder that produces layered blocks of
// n layers (clamped to QuantBits). n == 0, or an encoder that already
// requests layering, returns the encoder unchanged.
func (e *Encoder) Layered(n uint8) *Encoder {
	if n == 0 || e.params.Layers != 0 {
		return e
	}
	cp := *e
	cp.params.Layers = n
	if cp.params.Layers > cp.params.QuantBits {
		cp.params.Layers = cp.params.QuantBits
	}
	return &cp
}

// EncodeCell encodes the points at the given indices of the cloud, which
// must all lie inside cellBounds. In Auto mode every position coder runs
// and the smallest block wins. With a Cache attached, the cell's content
// key is looked up first and the encode is skipped on a hit.
func (e *Encoder) EncodeCell(id cell.ID, c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB) *Block {
	if e.Cache != nil {
		return e.Cache.Block(e.cellKey(id, c, idxs, cellBounds), func() *Block {
			return e.encodeCell(id, c, idxs, cellBounds)
		})
	}
	return e.encodeCell(id, c, idxs, cellBounds)
}

// encodeCell is the uncached encode: quantize and Morton-sort the cell
// and gather its colours once, then run the selected coder (or, in Auto
// mode, all three over the same scratch, recycling the losing output
// buffers).
func (e *Encoder) encodeCell(id cell.ID, c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB) *Block {
	edge := cellEdge(cellBounds)
	layered := e.params.Layers > 0
	// The layered coder floor-quantizes on the full [0, levels) lattice so
	// coarse-tier codes are exact right-shifts of the full-depth codes
	// (see layered.go).
	qsp := e.quantizeSorted(c, idxs, cellBounds, edge, layered)
	defer putQpoints(qsp)
	qs := *qsp
	cp := getI64(3 * len(qs))
	defer putI64(cp)
	cols := gatherColors(*cp, c, qs)

	if layered {
		return encodeLayered(e.params, id, qs, cols, cellBounds, edge)
	}
	if e.params.Auto {
		best := []byte(nil)
		for _, variant := range []Params{
			{QuantBits: e.params.QuantBits},
			{QuantBits: e.params.QuantBits, Octree: true},
			{QuantBits: e.params.QuantBits, Octree: true, Arithmetic: true},
		} {
			buf := encodeSorted(variant, id, qs, cols, cellBounds, edge)
			switch {
			case best == nil:
				best = buf
			case len(buf) < len(best):
				putBuf(best)
				best = buf
			default:
				putBuf(buf)
			}
		}
		return &Block{CellID: id, NumPoints: len(qs), Data: best}
	}
	return &Block{CellID: id, NumPoints: len(qs), Data: encodeSorted(e.params, id, qs, cols, cellBounds, edge)}
}

// quantizeSorted quantizes the points at idxs to Morton codes (flooring
// for the layered lattice, rounding for the flat one) and returns them in
// the canonical (code, idx) order both coders and TierPoints share, in
// pooled scratch the caller returns with putQpoints.
func (e *Encoder) quantizeSorted(c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB, edge float64, floor bool) *[]qpoint {
	qb := uint(e.params.QuantBits)
	levels := uint64(1) << qb
	inv := float64(levels-1) / edge
	if floor {
		inv = float64(levels) / edge
	}
	qsp := getQpoints(len(idxs))
	qs := *qsp
	// The pass also observes what the sort needs to know: which code bits
	// occur at all, and whether idxs already ascend (they do when they
	// come from Grid.Partition or a stride over it).
	var codeBits uint64
	ascending, last := true, -1
	for _, i := range idxs {
		d := c.Points[i].Pos.Sub(cellBounds.Min)
		var x, y, z uint64
		if floor {
			x = quantFloor(d.X*inv, levels)
			y = quantFloor(d.Y*inv, levels)
			z = quantFloor(d.Z*inv, levels)
		} else {
			x = quant(d.X*inv, levels)
			y = quant(d.Y*inv, levels)
			z = quant(d.Z*inv, levels)
		}
		code := morton3(x, y, z, qb)
		codeBits |= code
		ascending = ascending && i >= last
		last = i
		qs = append(qs, qpoint{code: code, idx: i})
	}
	*qsp = qs
	sortQpoints(qs, codeBits, ascending)
	return qsp
}

// radixMin is the length below which sortQpoints insertion-sorts: under
// it the radix passes' fixed cost (histograms, prefix sums) dominates.
const radixMin = 48

// sortQpoints orders quantized points by (code, idx): Morton order with
// source index breaking ties, the canonical permutation both coders and
// TierPoints share. It is a stable LSD radix sort on code: when idxs
// already ascend, stability alone leaves equal codes in idx order;
// otherwise the points are first radix-sorted by idx (through the same
// kernel, with the two fields swapped). codeBits is the OR of all codes
// and bounds the digits worth sorting on.
//
//vollint:hotpath
func sortQpoints(qs []qpoint, codeBits uint64, idxAscending bool) {
	if len(qs) < radixMin {
		for i := 1; i < len(qs); i++ {
			q := qs[i]
			j := i
			for ; j > 0 && (qs[j-1].code > q.code || qs[j-1].code == q.code && qs[j-1].idx > q.idx); j-- {
				qs[j] = qs[j-1]
			}
			qs[j] = q
		}
		return
	}
	tp := getQpoints(len(qs))
	tmp := (*tp)[:len(qs)]
	if !idxAscending {
		radixByCode(qs, tmp, swapFields(qs))
		swapFields(qs)
	}
	radixByCode(qs, tmp, codeBits)
	putQpoints(tp)
}

// swapFields exchanges code and idx in every element, so radixByCode can
// sort on idx, and returns the OR of the new codes.
func swapFields(qs []qpoint) (codeBits uint64) {
	for i, q := range qs {
		qs[i] = qpoint{code: uint64(q.idx), idx: int(q.code)}
		codeBits |= uint64(q.idx)
	}
	return codeBits
}

// radixByCode stably sorts qs by code, one byte per pass from the least
// significant, ping-ponging between qs and tmp (same length). Only the
// bytes codeBits has are visited, and a byte every element agrees on is
// skipped. The result always ends in qs.
//
//vollint:hotpath
func radixByCode(qs, tmp []qpoint, codeBits uint64) {
	ndig := (bits.Len64(codeBits) + 7) / 8
	var hist [8][256]uint32
	for i := range qs {
		code := qs[i].code
		for d := 0; d < ndig; d++ {
			hist[d][byte(code)]++
			code >>= 8
		}
	}
	src, dst := qs, tmp
	for d := 0; d < ndig; d++ {
		h, shift := &hist[d], uint(8*d)
		if int(h[byte(src[0].code>>shift)]) == len(src) {
			continue
		}
		var sum uint32
		for b, n := range h {
			h[b] = sum
			sum += n
		}
		for i := range src {
			b := byte(src[i].code >> shift)
			dst[h[b]] = src[i]
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &qs[0] {
		copy(qs, src)
	}
}

// colorPlanes holds a cell's colours planar, one slice per decorrelated
// channel — luma-ish G, then the chroma residuals R-G and B-G
// (near-constant on natural surfaces) — indexed by position in the sorted
// qpoint slice.
type colorPlanes [3][]int64

// gatherColors reads each sorted point's colour from the cloud once, into
// the three planes carved from dst (length >= 3*len(qs)); every colour
// pass of every coder and layer then runs over the planes.
//
//vollint:hotpath
func gatherColors(dst []int64, c *pointcloud.Cloud, qs []qpoint) colorPlanes {
	n := len(qs)
	g, rg, bg := dst[:n], dst[n:2*n], dst[2*n:3*n]
	for j := range qs {
		p := &c.Points[qs[j].idx]
		gv := int64(p.G)
		g[j], rg[j], bg[j] = gv, int64(p.R)-gv, int64(p.B)-gv
	}
	return colorPlanes{g, rg, bg}
}

// encodeSorted serializes one block's bytes from the already quantized and
// sorted points and their gathered colours. The output buffer comes from
// the scratch pool; callers that discard it must return it via putBuf.
func encodeSorted(p Params, id cell.ID, qs []qpoint, cols colorPlanes, cellBounds geom.AABB, edge float64) []byte {
	mode := ModeMorton
	switch {
	case p.Octree && p.Arithmetic, p.Arithmetic:
		mode = ModeOctreeAC
	case p.Octree:
		mode = ModeOctree
	}
	buf := getBuf(8 + len(qs)*4)
	buf = binary.LittleEndian.AppendUint16(buf, Magic)
	buf = append(buf, Version, p.QuantBits, mode)
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(qs)))
	buf = appendFloat32(buf, cellBounds.Min.X)
	buf = appendFloat32(buf, cellBounds.Min.Y)
	buf = appendFloat32(buf, cellBounds.Min.Z)
	buf = appendFloat32(buf, edge)

	if mode == ModeOctree || mode == ModeOctreeAC {
		buf = appendOctreePositions(buf, qs, uint(p.QuantBits), mode)
	} else {
		var prev uint64
		for _, q := range qs {
			buf = binary.AppendUvarint(buf, q.code-prev)
			prev = q.code
		}
	}
	// Colors planar in decorrelated (G, R-G, B-G) space, delta+zigzag per
	// channel with zero-run RLE: neighbouring points in Morton order tend
	// to share colors and the chroma channels are near-constant on real
	// surfaces, so most symbols collapse into runs.
	for _, plane := range cols {
		var prev int64
		var zrun uint64
		for _, v := range plane {
			d := zigzag(v - prev)
			prev = v
			if d == 0 {
				zrun++
				continue
			}
			buf = flushZeroRun(buf, &zrun)
			buf = binary.AppendUvarint(buf, d)
		}
		buf = flushZeroRun(buf, &zrun)
	}
	buf = binary.LittleEndian.AppendUint32(buf, checksum(buf))
	return buf
}

// EncodeFrame partitions the cloud on the grid and encodes every occupied
// cell, returning blocks keyed by cell ID. Cells are encoded on the par
// pool (cells are independent and the encoder is stateless); the result
// is identical for any pool width.
func (e *Encoder) EncodeFrame(g *cell.Grid, c *pointcloud.Cloud) map[cell.ID]*Block {
	defer e.Trace.Begin(-1, obs.PipelineUser, obs.StageEncode).End()
	parts := g.Partition(c)
	ids := make([]cell.ID, 0, len(parts))
	for id := range parts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	blocks, _ := par.Map(context.Background(), len(ids), func(i int) (*Block, error) {
		id := ids[i]
		return e.EncodeCell(id, c, parts[id], g.Bounds(id)), nil
	})
	out := make(map[cell.ID]*Block, len(ids))
	for i, id := range ids {
		out[id] = blocks[i]
	}
	return out
}

// appendOctreePositions emits the occupancy tree over the sorted codes
// plus the duplicate-count stream.
func appendOctreePositions(buf []byte, qs []qpoint, qb uint, mode uint8) []byte {
	up, cp := getU64(len(qs)), getU64(len(qs))
	defer func() { putU64(up); putU64(cp) }()
	uniques, counts := *up, *cp
	hasDup := false
	for i := 0; i < len(qs); {
		j := i
		for j < len(qs) && qs[j].code == qs[i].code {
			j++
		}
		uniques = append(uniques, qs[i].code)
		counts = append(counts, uint64(j-i))
		if j-i > 1 {
			hasDup = true
		}
		i = j
	}
	*up, *cp = uniques, counts
	if mode == ModeOctreeAC {
		buf = octreeEncodeAC(buf, uniques, qb)
	} else {
		buf = octreeEncode(buf, uniques, qb)
	}
	if hasDup {
		buf = append(buf, 1)
		for _, c := range counts {
			buf = binary.AppendUvarint(buf, c-1)
		}
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func quant(v float64, levels uint64) uint64 {
	if v < 0 {
		return 0
	}
	u := uint64(math.Round(v))
	if u >= levels {
		u = levels - 1
	}
	return u
}

// morton3 interleaves the low `bits` bits (at most 21) of x, y, z into a
// Morton code: x on bits 0, 3, 6, …, y one above, z two above.
func morton3(x, y, z uint64, bits uint) uint64 {
	m := uint64(1)<<bits - 1
	return spread3(x&m) | spread3(y&m)<<1 | spread3(z&m)<<2
}

// spread3 moves bit i of v (i < 21) to bit 3i by shift-and-mask doubling:
// each step splits every run of payload bits in two and pushes the upper
// half twice its width further up.
func spread3(v uint64) uint64 {
	v = (v | v<<32) & 0x001f00000000ffff
	v = (v | v<<16) & 0x001f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// demorton3 inverts morton3.
func demorton3(code uint64, bits uint) (x, y, z uint64) {
	for i := uint(0); i < bits; i++ {
		x |= ((code >> (3 * i)) & 1) << i
		y |= ((code >> (3*i + 1)) & 1) << i
		z |= ((code >> (3*i + 2)) & 1) << i
	}
	return x, y, z
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// flushZeroRun emits a pending run of zero deltas as the pair (0, runLen)
// and resets the counter. A zero delta is never emitted bare, so the 0
// symbol unambiguously introduces a run length.
func flushZeroRun(buf []byte, zrun *uint64) []byte {
	if *zrun == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, *zrun)
	*zrun = 0
	return buf
}

func appendFloat32(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
}
