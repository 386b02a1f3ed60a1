package codec

// Block layout (little-endian; varints are unsigned LEB128). One encode
// yields a base layer plus enhancement layers, nested so that the byte
// prefix of any t+1 leading layers is a self-contained decodable block —
// the point-cloud analog of SHVC output layer sets. Layer t covers octree
// depth d_t = quantBits-(L-1)+t: the base layer carries the occupancy
// tree to depth d_0 plus one representative color per node, and each
// enhancement layer refines every node by one depth bit (one occupancy
// byte per parent) plus color residuals for the newly split children.
// The final layer additionally carries duplicate counts and residuals so
// the full prefix reproduces every input point.
//
//	magic     uint16
//	version   uint8 = VersionLayered
//	quantBits uint8
//	mode      uint8 = ModeLayered
//	layers    uint8          (L, 1..quantBits)
//	cellID    uvarint
//	numPoints uvarint        (full-prefix point count)
//	origin    3 × float32   (cell AABB min corner)
//	edge      float32       (cell edge length)
//	segLen    L × uvarint    (segment byte length, incl. its crc32)
//	crc32     uint32         (IEEE, over the header above)
//	segment   L × (payload ‖ crc32 over that payload)
//
// Segment payloads (colors planar decorrelated (G, R-G, B-G), zigzag
// uvarints with zero-run RLE: a 0 symbol introduces a run length):
//
//	base:    DFS occupancy bytes to depth d_0 over the node codes, then
//	         per-node representative colors, delta-coded.
//	enh t:   one occupancy byte per depth d_{t-1} node (Morton order,
//	         never zero), then color residuals vs. the parent's
//	         representative for every non-first child (no delta
//	         chaining). The first child inherits the parent color — the
//	         representative is always the node's first full-depth point,
//	         so that residual is zero by construction and elided.
//	final:   the last segment appends a duplicate flag byte and, when
//	         set, per-node uvarint count-1 values plus color residuals
//	         for every duplicate vs. its node representative.
//
// Positions quantize by flooring (u = ⌊d·2^qb/edge⌋, clamped) and decode
// to voxel centers (origin + (u+0.5)·edge/2^depth). Flooring makes code
// truncation commute with coarse quantization exactly — the code of a
// point at depth d_t is its full-depth code shifted right by 3(L-1-t) —
// which is what makes a layer prefix decode byte-identical to an
// independent encode at that tier's depth (see TierPoints).

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

// NewEncoder returns an encoder with the given parameters; a zero
// QuantBits is replaced by the default's.
func NewEncoder(p Params) *Encoder {
	if p.QuantBits == 0 {
		p.QuantBits = DefaultParams().QuantBits
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

// Layered returns a copy of the encoder that produces blocks of n layers
// (clamped to QuantBits). n == 0, or an encoder whose layer count is
// already set, returns the encoder unchanged.
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

// layers is the effective layer count: an unset Params.Layers encodes one.
func (e *Encoder) layers() int {
	if e.params.Layers == 0 {
		return 1
	}
	return int(e.params.Layers)
}

// EncodeCell encodes the points at the given indices of the cloud, which
// must all lie inside cellBounds. With a Cache attached, the cell's
// content key is looked up first and the encode is skipped on a hit.
func (e *Encoder) EncodeCell(id cell.ID, c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB) *Block {
	if e.Cache != nil {
		return e.Cache.Block(e.cellKey(id, c, idxs, cellBounds), func() *Block {
			return e.encodeCell(id, c, idxs, cellBounds)
		})
	}
	return e.encodeCell(id, c, idxs, cellBounds)
}

// encodeCell is the uncached encode: quantize and Morton-sort the cell,
// gather its colours once, and serialize the layers.
func (e *Encoder) encodeCell(id cell.ID, c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB) *Block {
	edge := cellEdge(cellBounds)
	qsp := e.quantizeSorted(c, idxs, cellBounds, edge)
	defer putQpoints(qsp)
	qs := *qsp
	cp := getI64(3 * len(qs))
	defer putI64(cp)
	cols := gatherColors(*cp, c, qs)
	return encodeLayered(uint(e.params.QuantBits), e.layers(), id, qs, cols, cellBounds, edge)
}

// quantizeSorted floor-quantizes the points at idxs on the full
// [0, levels) lattice — so coarse-tier codes are exact right-shifts of the
// full-depth codes — and returns their Morton codes in the canonical
// (code, idx) order the coder and TierPoints share, in pooled scratch the
// caller returns with putQpoints.
func (e *Encoder) quantizeSorted(c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB, edge float64) *[]qpoint {
	qb := uint(e.params.QuantBits)
	levels := uint64(1) << qb
	inv := float64(levels) / edge
	qsp := getQpoints(len(idxs))
	qs := *qsp
	// The pass also observes what the sort needs to know: which code bits
	// occur at all, and whether idxs already ascend (they do when they
	// come from Grid.Partition or a stride over it).
	var codeBits uint64
	ascending, last := true, -1
	for _, i := range idxs {
		d := c.Points[i].Pos.Sub(cellBounds.Min)
		x := quantFloor(d.X*inv, levels)
		y := quantFloor(d.Y*inv, levels)
		z := quantFloor(d.Z*inv, levels)
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

// quantFloor floor-quantizes v (already scaled by levels/edge) onto
// [0, levels-1]. Flooring, unlike rounding, commutes with right-shifting
// the resulting code — the property layer prefixes rely on.
func quantFloor(v float64, levels uint64) uint64 {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u >= levels {
		u = levels - 1
	}
	return u
}

// cellEdge returns the quantization edge of a cell: the largest AABB
// dimension, floored away from zero.
func cellEdge(cellBounds geom.AABB) float64 {
	s := cellBounds.Size()
	edge := s.X
	if s.Y > edge {
		edge = s.Y
	}
	if s.Z > edge {
		edge = s.Z
	}
	if edge <= 0 {
		edge = 1e-6
	}
	return edge
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

// encodeLayered serializes the block from the floor-quantized,
// (code, idx)-sorted points and their gathered colours. Parameters are
// assumed clamped (NewEncoder): 1 <= L <= qb <= 16.
func encodeLayered(qb uint, L int, id cell.ID, qs []qpoint, cols colorPlanes, cellBounds geom.AABB, edge float64) *Block {
	N := len(qs)

	// One scan classifies every point by how far up the tree it parts
	// from its predecessor: split[j] counts the low 3-bit digits of code j
	// up to and including the highest one that differs from code j-1,
	// capped at L. Layer t drops k = L-1-t digits, so point j is the first
	// point of a depth-d_t node — its representative, lending the node its
	// colour — iff split[j] > k, and it also opens a new parent one level
	// up iff split[j] > k+1. Zero marks a duplicate of the point before,
	// L the first point of a base node, whose code the scan collects.
	split := getBuf(N)[:N]
	cg := getU64(N)
	baseCodes := *cg
	var prev uint64
	for j := range qs {
		code := qs[j].code
		v := (bits.Len64(prev^code) + 2) / 3
		if v >= L || j == 0 {
			v = L
			baseCodes = append(baseCodes, code>>uint(3*(L-1)))
		}
		split[j] = uint8(v)
		prev = code
	}

	// 7 B/pt covers the 45–49 bits/pt the format produces on body-surface
	// cells at qb 10; a denser cell grows the buffer, and the grown one is
	// what goes back to the pool.
	seg := getBuf(64 + 7*N)
	var segStart [17]int // segment t is seg[segStart[t]:segStart[t+1]]
	ints := make([]int, 2*L)
	offsets, layerPts := ints[:L:L], ints[L:]

	// Base segment: occupancy tree to d_0 plus absolute rep colors.
	seg = octreeEncode(seg, baseCodes, qb-uint(L-1))
	layerPts[0] = len(baseCodes)
	*cg = baseCodes
	putU64(cg)
	for _, plane := range cols {
		var prev int64
		var zrun uint64
		for j, v := range plane {
			if int(split[j]) < L {
				continue
			}
			d := zigzag(v - prev)
			prev = v
			if d == 0 {
				zrun++
				continue
			}
			seg = flushZeroRun(seg, &zrun)
			seg = binary.AppendUvarint(seg, d)
		}
		seg = flushZeroRun(seg, &zrun)
	}

	// Enhancement segments: per-parent occupancy byte, then residual
	// colors for the non-first children (a first child inherits the
	// parent's colour). The occupancy scan meets every child anyway, so it
	// also notes each non-first child beside its parent's first point, and
	// the colour passes touch only those pairs.
	pp := getI64(2 * N)
	for t := 1; t < L; t++ {
		seg = binary.LittleEndian.AppendUint32(seg, checksum(seg[segStart[t-1]:]))
		segStart[t] = len(seg)
		k := L - 1 - t
		pairs, first, nodes := (*pp)[:0], 0, 0
		for j, v := range split {
			if int(v) <= k {
				continue
			}
			nodes++
			bit := byte(1) << (qs[j].code >> uint(3*k) & 7)
			if int(v) > k+1 {
				first = j
				seg = append(seg, bit)
				continue
			}
			seg[len(seg)-1] |= bit
			pairs = append(pairs, int64(j), int64(first))
		}
		seg = appendResiduals(seg, cols, pairs)
		layerPts[t] = nodes
	}

	// The last segment also carries the duplicates, so the full prefix
	// returns every input point: a flag byte and, when set, per-node
	// count-1 values plus colour residuals of every duplicate vs. its
	// node's representative.
	switch uniques := layerPts[L-1]; {
	case N == 0:
	case uniques == N:
		seg = append(seg, 0)
	default:
		seg = append(seg, 1)
		pairs, first, run := (*pp)[:0], 0, uint64(0)
		for j, v := range split {
			if v == 0 {
				run++
				pairs = append(pairs, int64(j), int64(first))
				continue
			}
			if j > 0 {
				seg = binary.AppendUvarint(seg, run)
			}
			first, run = j, 0
		}
		seg = binary.AppendUvarint(seg, run)
		seg = appendResiduals(seg, cols, pairs)
	}
	putI64(pp)
	putBuf(split)
	layerPts[L-1] = N
	seg = binary.LittleEndian.AppendUint32(seg, checksum(seg[segStart[L-1]:]))
	segStart[L] = len(seg)

	// The header goes straight into the block's own exactly-sized buffer,
	// so its length (three varint fields aside, 26 bytes) is summed first.
	hdrLen := 26 + uvarintLen(uint64(id)) + uvarintLen(uint64(N))
	for t := 0; t < L; t++ {
		hdrLen += uvarintLen(uint64(segStart[t+1] - segStart[t]))
	}
	data := make([]byte, 0, hdrLen+len(seg))
	data = binary.LittleEndian.AppendUint16(data, Magic)
	data = append(data, VersionLayered, byte(qb), ModeLayered, byte(L))
	data = binary.AppendUvarint(data, uint64(id))
	data = binary.AppendUvarint(data, uint64(N))
	data = appendFloat32(data, cellBounds.Min.X)
	data = appendFloat32(data, cellBounds.Min.Y)
	data = appendFloat32(data, cellBounds.Min.Z)
	data = appendFloat32(data, edge)
	for t := 0; t < L; t++ {
		data = binary.AppendUvarint(data, uint64(segStart[t+1]-segStart[t]))
	}
	data = binary.LittleEndian.AppendUint32(data, checksum(data))
	data = append(data, seg...)
	putBuf(seg)
	for t := range offsets {
		offsets[t] = hdrLen + segStart[t+1]
	}
	return &Block{CellID: id, NumPoints: N, Data: data, LayerOffsets: offsets, LayerPoints: layerPts}
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendResiduals emits, channel by channel, the colour residual of each
// (point, reference) index pair — zigzag with zero-run RLE, no delta
// chaining.
func appendResiduals(seg []byte, cols colorPlanes, pairs []int64) []byte {
	for _, plane := range cols {
		var zrun uint64
		for i := 0; i < len(pairs); i += 2 {
			d := zigzag(plane[pairs[i]] - plane[pairs[i+1]])
			if d == 0 {
				zrun++
				continue
			}
			seg = flushZeroRun(seg, &zrun)
			seg = binary.AppendUvarint(seg, d)
		}
		seg = flushZeroRun(seg, &zrun)
	}
	return seg
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

// TierPoints returns the point set a layer prefix represents: one
// representative per occupied octree node at the tier's depth, carrying
// its original (unquantized) position and color. The representative is
// the node's first point in (code, idx) order. An independent
// single-layer encode (Params{QuantBits: d_t, Layers: 1}) of this set
// over the same bounds decodes byte-identically to the corresponding
// layer prefix — the parity contract the experiments pin. layers clamps
// to [1, Layers]; at the top tier the original point set (duplicates
// included) comes back.
//
// Kept: the oracle for that prefix contract in the codec and experiments
// parity tests.
func (e *Encoder) TierPoints(c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB, layers int) []pointcloud.Point {
	L := e.layers()
	if layers < 1 {
		layers = 1
	}
	if layers > L {
		layers = L
	}
	qsp := e.quantizeSorted(c, idxs, cellBounds, cellEdge(cellBounds))
	defer putQpoints(qsp)
	qs := *qsp
	if layers == L {
		out := make([]pointcloud.Point, len(qs))
		for i, q := range qs {
			out[i] = c.Points[q.idx]
		}
		return out
	}
	shift := uint(3 * (L - layers))
	out := make([]pointcloud.Point, 0, len(qs))
	for i := 0; i < len(qs); i++ {
		if i == 0 || qs[i].code>>shift != qs[i-1].code>>shift {
			out = append(out, c.Points[qs[i].idx])
		}
	}
	return out
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
	m := uint64(1)<<bits - 1
	return compact3(code) & m, compact3(code>>1) & m, compact3(code>>2) & m
}

// compact3 inverts spread3 — its five steps run backwards: bit 3i of v
// (i < 21) moves to bit i, and the bits between are dropped.
func compact3(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x001f0000ff0000ff
	v = (v | v>>16) & 0x001f00000000ffff
	v = (v | v>>32) & 0x00000000001fffff
	return v
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
