package codec

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
)

func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Decoder decompresses blocks produced by Encoder. Decoder is stateless
// (apart from the optional cache) and safe for concurrent use; the zero
// value is a valid uncached decoder.
type Decoder struct {
	// Cache, when non-nil, memoizes decoded cells by block content so N
	// consumers of the same block (overlapping viewports, repeated frames)
	// decode it once. Cached cells are shared and must not be mutated.
	Cache CellCache
	// Trace, when non-nil, records frame-level decode spans (DecodeFrame).
	Trace *obs.Tracer
}

// DecodedCell is the result of decoding one block. Cells returned by a
// caching decoder are shared between callers — treat them as read-only.
type DecodedCell struct {
	CellID cell.ID
	Points []pointcloud.Point
}

// Decode decodes a single encoded cell block, verifying the checksum.
// With a Cache attached the block's content key is looked up first and
// the decode is skipped on a hit.
func (d *Decoder) Decode(data []byte) (*DecodedCell, error) {
	if d.Cache != nil {
		return d.Cache.Cell(HashBytes(data), func() (*DecodedCell, error) {
			return d.decode(data)
		})
	}
	return d.decode(data)
}

// maxBlockPoints bounds the point count a block header may claim. A cell
// holds a fraction of a frame and frames top out near the 550K-point
// client ceiling, so anything beyond this is a corrupt or hostile header,
// rejected before the count sizes a single allocation.
const maxBlockPoints = 1 << 22

// blockHeader is the parsed fixed part of a block.
type blockHeader struct {
	qb, layers int
	id         cell.ID
	numPoints  int
	origin     geom.Vec3
	edge       float64
	// ends[t] is the end offset in the block of segment t (the first
	// starts at ends[-1] = hdrLen): a full block is ends[layers-1] long.
	ends   [16]int
	hdrLen int
}

// parseHeader reads and verifies a block's header: magic, version,
// geometry, the segment table and the header checksum. It looks at no
// segment, so it accepts any prefix that still holds the whole header.
func parseHeader(data []byte) (h blockHeader, err error) {
	if len(data) < 4+4 {
		return h, ErrTruncated
	}
	if binary.LittleEndian.Uint16(data) != Magic {
		return h, ErrBadMagic
	}
	if data[2] != VersionLayered {
		return h, ErrBadVersion
	}
	h.qb, h.layers = int(data[3]), int(data[5])
	if h.qb == 0 || h.qb > 16 || data[4] != ModeLayered || h.layers < 1 || h.layers > h.qb {
		return h, ErrBadGeometry
	}
	p := data[6:]
	id, n := binary.Uvarint(p)
	if n <= 0 {
		return h, ErrTruncated
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return h, ErrTruncated
	}
	p = p[n:]
	if count > maxBlockPoints {
		return h, ErrBadGeometry
	}
	h.id, h.numPoints = cell.ID(id), int(count)
	if len(p) < 16 {
		return h, ErrTruncated
	}
	h.origin = geom.V(readFloat32(p[0:]), readFloat32(p[4:]), readFloat32(p[8:]))
	h.edge = readFloat32(p[12:])
	p = p[16:]
	if h.edge <= 0 || math.IsNaN(h.edge) || math.IsInf(h.edge, 0) {
		return h, ErrBadGeometry
	}
	end := 0
	for t := 0; t < h.layers; t++ {
		v, vn := binary.Uvarint(p)
		if vn <= 0 || v < 4 {
			return h, ErrTruncated
		}
		p = p[vn:]
		// A prefix holds only its leading segments, and a later one may be
		// longer than all the bytes at hand: its length only has to put its
		// end, and every end after it, past len(data).
		end += int(min(v, uint64(len(data))+1))
		h.ends[t] = end
	}
	if len(p) < 4 {
		return h, ErrTruncated
	}
	h.hdrLen = len(data) - len(p) + 4
	if checksum(data[:h.hdrLen-4]) != binary.LittleEndian.Uint32(p) {
		return h, ErrChecksum
	}
	for t := 0; t < h.layers; t++ {
		h.ends[t] += h.hdrLen
	}
	return h, nil
}

// segment returns the checksum-verified payload of segment t, which must
// lie wholly inside data.
func (h *blockHeader) segment(data []byte, t int) ([]byte, error) {
	start := h.hdrLen
	if t > 0 {
		start = h.ends[t-1]
	}
	s := data[start:h.ends[t]]
	pay, sum := s[:len(s)-4], binary.LittleEndian.Uint32(s[len(s)-4:])
	if checksum(pay) != sum {
		return nil, ErrChecksum
	}
	return pay, nil
}

// ParseBlock rebuilds the Block of a complete encoded block from its
// bytes — the layer offsets come out of the header's segment table — and
// the per-layer point counts stored beside it (the header records only
// the last). It verifies the header, not the segments: Decode does that.
func ParseBlock(data []byte, layerPoints []int) (*Block, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if h.ends[h.layers-1] != len(data) {
		return nil, ErrTruncated
	}
	if len(layerPoints) != h.layers || layerPoints[h.layers-1] != h.numPoints {
		return nil, ErrBadGeometry
	}
	return &Block{
		CellID:       h.id,
		NumPoints:    h.numPoints,
		Data:         data,
		LayerOffsets: append([]int(nil), h.ends[:h.layers]...),
		LayerPoints:  layerPoints,
	}, nil
}

// decode is the uncached decode path: a whole block or any whole-segment
// prefix of one. The header and each layer segment carry their own
// checksum, so every prefix verifies on its own. decode checks the
// framing and borrows the scratch; the kernel (DESIGN.md §16) is
// decodeScratch.points and the hot-path functions below it.
func (d *Decoder) decode(data []byte) (*DecodedCell, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}

	// The supplied bytes must end exactly on a segment boundary; the
	// boundary index is the number of layers this prefix carries.
	k := 0
	for t := 0; t < h.layers && h.ends[t] <= len(data); t++ {
		if h.ends[t] == len(data) {
			k = t + 1
		}
	}
	if k == 0 {
		return nil, ErrTruncated
	}

	out := &DecodedCell{CellID: h.id}
	if h.numPoints == 0 {
		// Degenerate empty cell: every segment is just its checksum.
		for t := 0; t < k; t++ {
			pay, err := h.segment(data, t)
			if err != nil {
				return nil, err
			}
			if len(pay) != 0 {
				return nil, ErrTruncated
			}
		}
		out.Points = []pointcloud.Point{}
		return out, nil
	}

	// Every node costs at least one occupancy bit, so the bytes at hand
	// bound the scratch however many points the header claims.
	s := getDecodeScratch(min(h.numPoints, 8*len(data)))
	out.Points, err = s.points(&h, data, k)
	putDecodeScratch(s)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// points decodes the first k segments of a non-empty block: the occupancy
// walk and the base colour planes, one expansion per enhancement segment
// — node codes and the unclamped decorrelated colour planes ping-pong
// between the scratch's two halves — and the emit loop into the one
// slice it allocates. Every structural failure is ErrTruncated.
func (s *decodeScratch) points(h *blockHeader, data []byte, k int) ([]pointcloud.Point, error) {
	L, N := h.layers, h.numPoints

	// Base segment.
	pay, err := h.segment(data, 0)
	if err != nil {
		return nil, err
	}
	cur := 0
	pay, codes, ok := octreeDecodeBounded(pay, len(s.codes[cur]), uint(h.qb-(L-1)), s.codes[cur])
	if !ok {
		return nil, ErrTruncated
	}
	np, pos := len(codes), 0
	for ch := range s.planes[cur] {
		if pos, ok = readDeltaPlane(s.planes[cur][ch][:np], pay, pos); !ok {
			return nil, ErrTruncated
		}
	}

	// Enhancement segments 1..k-1 refine codes and colors.
	for t := 1; t < k; t++ {
		if pos != len(pay) {
			return nil, ErrTruncated
		}
		if pay, err = h.segment(data, t); err != nil {
			return nil, err
		}
		if len(pay) < np {
			return nil, ErrTruncated
		}
		occ, nxt := pay[:np], 1-cur
		nc, ok := expandCodes(s.codes[nxt], codes, occ)
		if !ok {
			return nil, ErrTruncated
		}
		pos = np
		for ch := range s.planes[nxt] {
			if pos, ok = expandPlane(s.planes[nxt][ch][:nc], s.planes[cur][ch], occ, pay, pos); !ok {
				return nil, ErrTruncated
			}
		}
		codes, np, cur = s.codes[nxt][:nc], nc, nxt
	}

	depth := uint(h.qb - (L - k))
	scale := h.edge / float64(uint64(1)<<depth)
	g, rg, bg := s.planes[cur][0][:np], s.planes[cur][1][:np], s.planes[cur][2][:np]

	// A tier prefix ends with its last refinement; the full prefix goes on
	// with the duplicate flag.
	dups := false
	if k == L {
		if pos >= len(pay) || pay[pos] > 1 {
			return nil, ErrTruncated
		}
		dups = pay[pos] == 1
		pos++
	}
	if !dups {
		// One point per node.
		if pos != len(pay) || k == L && np != N {
			return nil, ErrTruncated
		}
		pts := make([]pointcloud.Point, np)
		emitPoints(pts, codes, nil, g, rg, bg, depth, h.origin, scale)
		return pts, nil
	}

	// Expand duplicates so every input point comes back. The counts go in
	// the code buffer the last expansion left free.
	counts := s.codes[1-cur][:np]
	if pos, ok = readDupCounts(counts, N, pay, pos); !ok {
		return nil, ErrTruncated
	}
	pts := make([]pointcloud.Point, N)
	emitPoints(pts, codes, counts, g, rg, bg, depth, h.origin, scale)
	// Duplicate colors: residuals vs. the node representative, planar.
	dupG := s.dupPlane(N - np)
	for ch, rep := range [3][]int64{g, rg, bg} {
		if pos, ok = emitDupColors(pts, counts, rep, dupG, ch, pay, pos); !ok {
			return nil, ErrTruncated
		}
	}
	if pos != len(pay) {
		return nil, ErrTruncated
	}
	return pts, nil
}

// uvarintAt reads the uvarint at p[pos:] and returns it with the offset
// just past it, or a negative offset when p ends inside it or it
// overflows 64 bits. Almost every symbol the coder writes is one byte;
// the loops below read those themselves — the compiler will not inline a
// function that holds both the test and this call — and come here for
// the rest.
func uvarintAt(p []byte, pos int) (uint64, int) {
	if pos < len(p) {
		if u, n := binary.Uvarint(p[pos:]); n > 0 {
			return u, pos + n
		}
	}
	return 0, -1
}

// residualAt reads the colour residual at p[pos:] — a zigzag symbol, or a
// 0 symbol and the length of the run of zero residuals it introduces —
// and returns its value, how many zero residuals follow it, and the
// offset just past it, negative when the stream is malformed.
func residualAt(p []byte, pos int) (resid int64, zeros uint64, next int) {
	u, pos := uvarintAt(p, pos)
	if pos < 0 || u != 0 {
		return unzigzag(u), 0, pos
	}
	run, pos := uvarintAt(p, pos)
	if pos < 0 || run == 0 {
		return 0, 0, -1
	}
	return 0, run - 1, pos
}

// readDeltaPlane fills vals with one base colour plane read from p[pos:]
// — delta-chained residuals — and returns the offset past it.
//
//vollint:hotpath
func readDeltaPlane(vals []int64, p []byte, pos int) (int, bool) {
	var prev int64
	for i := 0; i < len(vals); i++ {
		if pos < len(p) && p[pos]-1 < 0x7f {
			prev += unzigzag(uint64(p[pos]))
			pos++
			vals[i] = prev
			continue
		}
		resid, zeros, next := residualAt(p, pos)
		if next < 0 || zeros >= uint64(len(vals)-i) {
			return 0, false
		}
		pos = next
		prev += resid
		for end := i + int(zeros); i < end; i++ {
			vals[i] = prev
		}
		vals[i] = prev
	}
	return pos, true
}

// expandCodes writes the child codes of one enhancement layer into out:
// parent i splits into the children its occupancy byte occ[i] names. It
// returns their number, or false for a zero byte (a node with no child)
// or more children than out holds — which, out being bounded by eight
// nodes per byte at hand, happens exactly when they outnumber the
// header's point count.
//
//vollint:hotpath
func expandCodes(out, codes []uint64, occ []byte) (int, bool) {
	n := 0
	for i, o := range occ {
		if o == 0 || n+bits.OnesCount8(o) > len(out) {
			return 0, false
		}
		base := codes[i] << 3
		for ; o != 0; o &= o - 1 {
			out[n] = base | uint64(bits.TrailingZeros8(o))
			n++
		}
	}
	return n, true
}

// expandPlane writes one colour plane of an enhancement layer into newv
// (one value per child) from the parents' plane oldv: a node's first
// child takes the parent's value, every further child adds a residual
// read from p[pos:]. A single-child byte — nearly every byte on a
// body-surface cell at depth 10 — is therefore a copy and reads nothing.
// It fails on a malformed residual and on a zero run that outlasts the
// plane.
//
//vollint:hotpath
func expandPlane(newv, oldv []int64, occ []byte, p []byte, pos int) (int, bool) {
	ci, zeros := 0, uint64(0)
	for pi, o := range occ {
		pv := oldv[pi]
		newv[ci] = pv
		ci++
		if o&(o-1) == 0 {
			continue
		}
		for n := bits.OnesCount8(o) - 1; n > 0; n-- {
			var resid int64
			if zeros > 0 {
				zeros--
			} else if pos < len(p) && p[pos]-1 < 0x7f {
				resid = unzigzag(uint64(p[pos]))
				pos++
			} else if resid, zeros, pos = residualAt(p, pos); pos < 0 {
				return 0, false
			}
			newv[ci] = pv + resid
			ci++
		}
	}
	return pos, zeros == 0
}

// readDupCounts reads the final layer's per-node point counts (stored as
// count-1 uvarints) into counts; they must sum to the header's N.
//
//vollint:hotpath
func readDupCounts(counts []uint64, N int, p []byte, pos int) (int, bool) {
	var total uint64
	for i := range counts {
		var c uint64
		if pos < len(p) && p[pos] < 0x80 {
			c = uint64(p[pos])
			pos++
		} else if c, pos = uvarintAt(p, pos); pos < 0 {
			return 0, false
		}
		if c >= uint64(N) {
			return 0, false
		}
		counts[i] = c + 1
		total += c + 1
	}
	return pos, total == uint64(N)
}

// emitPoints writes the output: node i's voxel-center position, counts[i]
// times over (once when counts is nil), and its representative colour on
// the first of them. len(pts) is the sum of the counts.
//
//vollint:hotpath
func emitPoints(pts []pointcloud.Point, codes, counts []uint64, g, rg, bg []int64, depth uint, origin geom.Vec3, scale float64) {
	pi := 0
	for i, code := range codes {
		x, y, z := demorton3(code, depth)
		pos := origin.Add(geom.V(
			(float64(x)+0.5)*scale, (float64(y)+0.5)*scale, (float64(z)+0.5)*scale))
		pts[pi] = pointcloud.Point{
			Pos: pos,
			R:   uint8(clampI64(g[i]+rg[i], 0, 255)),
			G:   uint8(clampI64(g[i], 0, 255)),
			B:   uint8(clampI64(g[i]+bg[i], 0, 255)),
		}
		pi++
		if counts == nil {
			continue
		}
		for end := pi + int(counts[i]) - 1; pi < end; pi++ {
			pts[pi].Pos = pos
		}
	}
}

// emitDupColors reads one plane of duplicate residuals from p[pos:] and
// finishes channel ch of every duplicate point (the points after the
// first of each node, which emitPoints coloured). Channel 0 is G, kept
// unclamped in dupG for the two chroma planes that follow to add to.
//
//vollint:hotpath
func emitDupColors(pts []pointcloud.Point, counts []uint64, rep, dupG []int64, ch int, p []byte, pos int) (int, bool) {
	pi, di, zeros := 0, 0, uint64(0)
	for i, c := range counts {
		for j := 1; j < int(c); j++ {
			var resid int64
			if zeros > 0 {
				zeros--
			} else if resid, zeros, pos = residualAt(p, pos); pos < 0 {
				return 0, false
			}
			v := rep[i] + resid
			switch ch {
			case 0:
				dupG[di] = v
				pts[pi+j].G = uint8(clampI64(v, 0, 255))
			case 1:
				pts[pi+j].R = uint8(clampI64(dupG[di]+v, 0, 255))
			default:
				pts[pi+j].B = uint8(clampI64(dupG[di]+v, 0, 255))
			}
			di++
		}
		pi += int(c)
	}
	return pos, zeros == 0
}

// DecodeFrame decodes a set of blocks into a single cloud, spreading the
// per-cell work across the par pool (cells are independently decodable —
// the property the streaming design is built on). Cells are concatenated
// in ascending cell-ID order, so the output point order is deterministic
// for any pool width; the lowest-cell error wins.
func (d *Decoder) DecodeFrame(blocks map[cell.ID]*Block) (*pointcloud.Cloud, error) {
	defer d.Trace.Begin(-1, obs.PipelineUser, obs.StageDecode).End()
	if len(blocks) == 0 {
		return &pointcloud.Cloud{}, nil
	}
	list := make([]*Block, 0, len(blocks))
	total := 0
	for _, b := range blocks {
		list = append(list, b)
		total += b.NumPoints
	}
	slices.SortFunc(list, func(a, b *Block) int { return int(a.CellID) - int(b.CellID) })
	results, err := par.Map(context.Background(), len(list), func(i int) ([]pointcloud.Point, error) {
		dc, err := d.Decode(list[i].Data)
		if err != nil {
			return nil, err
		}
		return dc.Points, nil
	})
	if err != nil {
		return nil, err
	}
	out := &pointcloud.Cloud{Points: make([]pointcloud.Point, 0, total)}
	for _, pts := range results {
		out.Points = append(out.Points, pts...)
	}
	return out, nil
}

func readFloat32(b []byte) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
}

func clampI64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
