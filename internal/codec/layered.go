package codec

// Layered progressive blocks (VersionLayered): one encode yields a base
// layer plus enhancement layers, nested so that the byte prefix of any
// t+1 leading layers is a self-contained decodable block — the
// point-cloud analog of SHVC output layer sets. Layer t covers octree
// depth d_t = quantBits-(L-1)+t: the base layer carries the occupancy
// tree to depth d_0 plus one representative color per node, and each
// enhancement layer refines every node by one depth bit (one occupancy
// byte per parent) plus color residuals for the newly split children.
// The final layer additionally carries duplicate counts and residuals so
// the full prefix reproduces every input point exactly as a flat encode
// would.
//
// Layered block layout (little-endian; varints as in the flat format):
//
//	magic     uint16
//	version   uint8 = VersionLayered
//	quantBits uint8
//	mode      uint8 = ModeLayered
//	layers    uint8          (L, 1..quantBits)
//	cellID    uvarint
//	numPoints uvarint        (full-prefix point count)
//	origin    3 × float32
//	edge      float32
//	segLen    L × uvarint    (segment byte length, incl. its crc32)
//	crc32     uint32         (IEEE, over the header above)
//	segment   L × (payload ‖ crc32 over that payload)
//
// Segment payloads (colors planar decorrelated (G, R-G, B-G) with the
// flat format's zero-run RLE):
//
//	base:    DFS occupancy bytes to depth d_0 over the node codes, then
//	         per-node representative colors, delta-coded.
//	enh t:   one occupancy byte per depth d_{t-1} node (Morton order,
//	         never zero), then color residuals vs. the parent's
//	         representative for every non-first child (zigzag, no delta
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
	"encoding/binary"
	"math"
	"math/bits"

	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

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

// encodeLayered serializes the layered block from the floor-quantized,
// (code, idx)-sorted points and their gathered colours. Parameters are
// assumed clamped (NewEncoder): 1 <= Layers <= QuantBits <= 16.
func encodeLayered(p Params, id cell.ID, qs []qpoint, cols colorPlanes, cellBounds geom.AABB, edge float64) *Block {
	qb := uint(p.QuantBits)
	L := int(p.Layers)
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
	data = append(data, VersionLayered, p.QuantBits, ModeLayered, byte(L))
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

// residReader streams zigzag residual symbols with zero-run RLE (the 0
// symbol introduces a run length, as in the flat color coder).
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

// decodeLayered decodes a layered block or any whole-segment prefix of
// one. Magic and version have already been checked by the dispatcher;
// data still includes them.
func (d *Decoder) decodeLayered(data []byte) (*DecodedCell, error) {
	if len(data) < 6 {
		return nil, ErrTruncated
	}
	qb := uint(data[3])
	if qb == 0 || qb > 16 {
		return nil, ErrBadGeometry
	}
	if data[4] != ModeLayered {
		return nil, ErrBadGeometry
	}
	L := int(data[5])
	if L < 1 || L > int(qb) {
		return nil, ErrBadGeometry
	}
	p := data[6:]
	id, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrTruncated
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrTruncated
	}
	p = p[n:]
	if len(p) < 16 {
		return nil, ErrTruncated
	}
	origin := geom.V(readFloat32(p[0:]), readFloat32(p[4:]), readFloat32(p[8:]))
	edge := readFloat32(p[12:])
	p = p[16:]
	if edge <= 0 || math.IsNaN(edge) || math.IsInf(edge, 0) {
		return nil, ErrBadGeometry
	}
	N := int(count)
	segLens := make([]int, L)
	for t := range segLens {
		v, vn := binary.Uvarint(p)
		if vn <= 0 || v < 4 || v > uint64(len(data)) {
			return nil, ErrTruncated
		}
		p = p[vn:]
		segLens[t] = int(v)
	}
	if len(p) < 4 {
		return nil, ErrTruncated
	}
	hdrLen := len(data) - len(p) + 4
	if checksum(data[:hdrLen-4]) != binary.LittleEndian.Uint32(p) {
		return nil, ErrChecksum
	}

	// The supplied bytes must end exactly on a segment boundary; the
	// boundary index is the number of layers this prefix carries.
	k, off := 0, hdrLen
	for t := 0; t < L; t++ {
		off += segLens[t]
		if off == len(data) {
			k = t + 1
			break
		}
		if off > len(data) {
			break
		}
	}
	if k == 0 {
		return nil, ErrTruncated
	}

	out := &DecodedCell{CellID: cell.ID(id)}
	segment := func(t int) ([]byte, error) {
		start := hdrLen
		for i := 0; i < t; i++ {
			start += segLens[i]
		}
		s := data[start : start+segLens[t]]
		pay, sum := s[:len(s)-4], binary.LittleEndian.Uint32(s[len(s)-4:])
		if checksum(pay) != sum {
			return nil, ErrChecksum
		}
		return pay, nil
	}

	if N == 0 {
		// Degenerate empty cell: every segment is just its checksum.
		for t := 0; t < k; t++ {
			pay, err := segment(t)
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
	// between two pooled buffers as each segment refines them.
	codeBuf := [2]*[]uint64{getU64(N), getU64(N)}
	chanBuf := [2][3]*[]int64{
		{getI64(N), getI64(N), getI64(N)},
		{getI64(N), getI64(N), getI64(N)},
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
	pay, err := segment(0)
	if err != nil {
		return nil, err
	}
	rest, codes, ok := octreeDecodeBounded(pay, N, qb-uint(L-1), (*codeBuf[0])[:0])
	if !ok {
		return nil, ErrTruncated
	}
	*codeBuf[0] = codes
	pay = rest
	np := len(codes)
	for ch := 0; ch < 3; ch++ {
		vals := (*chanBuf[0][ch])[:N]
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
		if pay, err = segment(t); err != nil {
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
			newv := (*chanBuf[nxt][ch])[:N]
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
	scale := edge / float64(uint64(1)<<depth)
	chans := chanBuf[cur]

	if k < L {
		// Tier prefix: one point per node, voxel-center positions.
		if len(pay) != 0 {
			return nil, ErrTruncated
		}
		out.Points = make([]pointcloud.Point, np)
		g, rg, bg := (*chans[0])[:np], (*chans[1])[:np], (*chans[2])[:np]
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

	// Full prefix: expand duplicates so every input point comes back.
	if len(pay) < 1 {
		return nil, ErrTruncated
	}
	dupFlag := pay[0]
	pay = pay[1:]
	U := np
	countsP := getU64(U)
	defer putU64(countsP)
	counts := (*countsP)[:0]
	if dupFlag == 0 {
		if U != N || len(pay) != 0 {
			return nil, ErrTruncated
		}
		out.Points = make([]pointcloud.Point, N)
		g, rg, bg := (*chans[0])[:U], (*chans[1])[:U], (*chans[2])[:U]
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
	if dupFlag != 1 {
		return nil, ErrTruncated
	}
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
	g, rg, bg := (*chans[0])[:U], (*chans[1])[:U], (*chans[2])[:U]
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
	for ch := 0; ch < 3; ch++ {
		rd := residReader{p: pay}
		di := 0
		for i := 0; i < U; i++ {
			var rv int64
			switch ch {
			case 0:
				rv = g[i]
			case 1:
				rv = rg[i]
			default:
				rv = bg[i]
			}
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

// TierPoints returns the point set a layer prefix represents: one
// representative per occupied octree node at the tier's depth, carrying
// its original (unquantized) position and color. The representative is
// the node's first point in (code, idx) order. An independent
// single-layer encode (Params{QuantBits: d_t, Layers: 1}) of this set
// over the same bounds decodes byte-identically to the corresponding
// layer prefix — the parity contract the experiments pin. layers clamps
// to [1, Layers]; at the top tier the original point set (duplicates
// included) comes back.
func (e *Encoder) TierPoints(c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB, layers int) []pointcloud.Point {
	L := int(e.params.Layers)
	if L < 1 {
		L = 1
	}
	if layers < 1 {
		layers = 1
	}
	if layers > L {
		layers = L
	}
	qsp := e.quantizeSorted(c, idxs, cellBounds, cellEdge(cellBounds), true)
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
