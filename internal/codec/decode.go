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
		if vn <= 0 || v < 4 || v > uint64(len(data)) {
			return h, ErrTruncated
		}
		p = p[vn:]
		end += int(v)
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
// checksum, so every prefix verifies on its own.
func (d *Decoder) decode(data []byte) (*DecodedCell, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	qb, L, N := uint(h.qb), h.layers, h.numPoints

	// The supplied bytes must end exactly on a segment boundary; the
	// boundary index is the number of layers this prefix carries.
	k := 0
	for t := 0; t < L && h.ends[t] <= len(data); t++ {
		if h.ends[t] == len(data) {
			k = t + 1
		}
	}
	if k == 0 {
		return nil, ErrTruncated
	}

	out := &DecodedCell{CellID: h.id}
	if N == 0 {
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

	// Ping-pong node codes and unclamped decorrelated color channels
	// between two pooled buffers as each segment refines them. Every node
	// costs at least one occupancy bit, so the bytes at hand bound the
	// scratch however many points the header claims.
	M := min(N, 8*len(data))
	codeBuf := [2]*[]uint64{getU64(M), getU64(M)}
	chanBuf := [2][3]*[]int64{
		{getI64(M), getI64(M), getI64(M)},
		{getI64(M), getI64(M), getI64(M)},
	}
	defer func() {
		putU64(codeBuf[0])
		putU64(codeBuf[1])
		for s := 0; s < 2; s++ {
			for ch := 0; ch < 3; ch++ {
				putI64(chanBuf[s][ch])
			}
		}
	}()
	cur := 0

	// Base segment.
	pay, err := h.segment(data, 0)
	if err != nil {
		return nil, err
	}
	rest, codes, ok := octreeDecodeBounded(pay, M, qb-uint(L-1), (*codeBuf[0])[:0])
	if !ok {
		return nil, ErrTruncated
	}
	*codeBuf[0] = codes
	pay = rest
	np := len(codes)
	for ch := 0; ch < 3; ch++ {
		vals := (*chanBuf[0][ch])[:M]
		var prev int64
		i := 0
		for i < np {
			u, un := binary.Uvarint(pay)
			if un <= 0 {
				return nil, ErrTruncated
			}
			pay = pay[un:]
			if u == 0 {
				run, rn := binary.Uvarint(pay)
				if rn <= 0 || run == 0 || uint64(np-i) < run {
					return nil, ErrTruncated
				}
				pay = pay[rn:]
				for j := uint64(0); j < run; j++ {
					vals[i] = prev
					i++
				}
				continue
			}
			prev += unzigzag(u)
			vals[i] = prev
			i++
		}
	}

	// Enhancement segments 1..k-1 refine codes and colors in place.
	for t := 1; t < k; t++ {
		if len(pay) != 0 {
			return nil, ErrTruncated
		}
		if pay, err = h.segment(data, t); err != nil {
			return nil, err
		}
		if len(pay) < np {
			return nil, ErrTruncated
		}
		occ := pay[:np]
		pay = pay[np:]
		nc := 0
		for _, o := range occ {
			if o == 0 {
				return nil, ErrTruncated
			}
			nc += bits.OnesCount8(o)
		}
		if nc > N {
			return nil, ErrTruncated
		}
		nxt := 1 - cur
		ncodes := (*codeBuf[nxt])[:0]
		for pi, o := range occ {
			base := codes[pi] << 3
			for digit := uint64(0); digit < 8; digit++ {
				if o&(1<<digit) != 0 {
					ncodes = append(ncodes, base|digit)
				}
			}
		}
		*codeBuf[nxt] = ncodes
		for ch := 0; ch < 3; ch++ {
			oldv := (*chanBuf[cur][ch])[:np]
			newv := (*chanBuf[nxt][ch])[:M]
			rd := residReader{p: pay}
			ci := 0
			for pi, o := range occ {
				pv := oldv[pi]
				first := true
				for digit := 0; digit < 8; digit++ {
					if o&(1<<digit) == 0 {
						continue
					}
					if first {
						newv[ci] = pv
						first = false
						ci++
						continue
					}
					resid, err := rd.next()
					if err != nil {
						return nil, err
					}
					newv[ci] = pv + resid
					ci++
				}
			}
			if err := rd.done(); err != nil {
				return nil, err
			}
			pay = rd.p
		}
		codes = ncodes
		np = nc
		cur = nxt
	}

	depth := qb - uint(L-k)
	scale := h.edge / float64(uint64(1)<<depth)
	origin := h.origin
	U := np
	g, rg, bg := (*chanBuf[cur][0])[:U], (*chanBuf[cur][1])[:U], (*chanBuf[cur][2])[:U]

	// A tier prefix ends with its last refinement; the full prefix goes on
	// with the duplicate flag.
	dups := false
	if k == L {
		if len(pay) < 1 || pay[0] > 1 {
			return nil, ErrTruncated
		}
		dups = pay[0] == 1
		pay = pay[1:]
	}
	if !dups {
		// One point per node, voxel-center positions.
		if len(pay) != 0 || k == L && U != N {
			return nil, ErrTruncated
		}
		out.Points = make([]pointcloud.Point, U)
		for i, code := range codes {
			x, y, z := demorton3(code, depth)
			out.Points[i].Pos = origin.Add(geom.V(
				(float64(x)+0.5)*scale, (float64(y)+0.5)*scale, (float64(z)+0.5)*scale))
			out.Points[i].G = uint8(clampI64(g[i], 0, 255))
			out.Points[i].R = uint8(clampI64(g[i]+rg[i], 0, 255))
			out.Points[i].B = uint8(clampI64(g[i]+bg[i], 0, 255))
		}
		return out, nil
	}

	// Expand duplicates so every input point comes back.
	countsP := getU64(U)
	defer putU64(countsP)
	counts := (*countsP)[:0]
	var total uint64
	for i := 0; i < U; i++ {
		c, cn := binary.Uvarint(pay)
		if cn <= 0 || c >= uint64(N) {
			return nil, ErrTruncated
		}
		pay = pay[cn:]
		counts = append(counts, c+1)
		total += c + 1
	}
	*countsP = counts
	if total != uint64(N) {
		return nil, ErrTruncated
	}
	out.Points = make([]pointcloud.Point, N)
	starts := make([]int, U)
	pi := 0
	for i, code := range codes {
		starts[i] = pi
		x, y, z := demorton3(code, depth)
		pos := origin.Add(geom.V(
			(float64(x)+0.5)*scale, (float64(y)+0.5)*scale, (float64(z)+0.5)*scale))
		for r := uint64(0); r < counts[i]; r++ {
			out.Points[pi].Pos = pos
			pi++
		}
		out.Points[starts[i]].G = uint8(clampI64(g[i], 0, 255))
		out.Points[starts[i]].R = uint8(clampI64(g[i]+rg[i], 0, 255))
		out.Points[starts[i]].B = uint8(clampI64(g[i]+bg[i], 0, 255))
	}
	// Duplicate colors: residuals vs. the node representative, planar.
	dgP := getI64(N - U)
	defer putI64(dgP)
	dg := *dgP
	for ch, rep := range [3][]int64{g, rg, bg} {
		rd := residReader{p: pay}
		di := 0
		for i := 0; i < U; i++ {
			rv := rep[i]
			for j := 1; j < int(counts[i]); j++ {
				resid, err := rd.next()
				if err != nil {
					return nil, err
				}
				v := rv + resid
				idx := starts[i] + j
				switch ch {
				case 0:
					dg[di] = v
					out.Points[idx].G = uint8(clampI64(v, 0, 255))
				case 1:
					out.Points[idx].R = uint8(clampI64(dg[di]+v, 0, 255))
				default:
					out.Points[idx].B = uint8(clampI64(dg[di]+v, 0, 255))
				}
				di++
			}
		}
		if err := rd.done(); err != nil {
			return nil, err
		}
		pay = rd.p
	}
	if len(pay) != 0 {
		return nil, ErrTruncated
	}
	return out, nil
}

// residReader streams zigzag residual symbols with zero-run RLE (the 0
// symbol introduces a run length).
type residReader struct {
	p   []byte
	run uint64
}

func (r *residReader) next() (int64, error) {
	if r.run > 0 {
		r.run--
		return 0, nil
	}
	u, n := binary.Uvarint(r.p)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.p = r.p[n:]
	if u == 0 {
		c, n := binary.Uvarint(r.p)
		if n <= 0 || c == 0 {
			return 0, ErrTruncated
		}
		r.p = r.p[n:]
		r.run = c - 1
		return 0, nil
	}
	return unzigzag(u), nil
}

// done fails when a zero run claimed more symbols than were consumed.
func (r *residReader) done() error {
	if r.run != 0 {
		return ErrTruncated
	}
	return nil
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
