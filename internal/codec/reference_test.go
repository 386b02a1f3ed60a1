package codec

// The encoder as it stood before the encode kernel (DESIGN.md §15), kept
// verbatim apart from the ref prefix: the bit-loop Morton interleave, the
// comparator sort, the recursive octree and the layered serializer built
// on them. The differential tests below pin the kernel's output to these
// byte for byte.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

func refEncodeCell(e *Encoder, id cell.ID, c *pointcloud.Cloud, idxs []int, cellBounds geom.AABB) *Block {
	qb := uint(e.params.QuantBits)
	levels := uint64(1) << qb
	edge := cellEdge(cellBounds)
	// The coder floor-quantizes on the full [0, levels) lattice so
	// coarse-tier codes are exact right-shifts of the full-depth codes.
	inv := float64(levels) / edge

	// Quantize each point to a Morton code for locality-friendly deltas.
	// The sort breaks code ties by source index, making the permutation
	// canonical (independent of the sort algorithm).
	qsp := getQpoints(len(idxs))
	defer putQpoints(qsp)
	qs := *qsp
	for _, i := range idxs {
		d := c.Points[i].Pos.Sub(cellBounds.Min)
		x := quantFloor(d.X*inv, levels)
		y := quantFloor(d.Y*inv, levels)
		z := quantFloor(d.Z*inv, levels)
		qs = append(qs, qpoint{code: refMorton3(x, y, z, qb), idx: i})
	}
	*qsp = qs
	refSortQpoints(qs)
	return refEncodeLayered(e.params, id, c, qs, cellBounds, edge)
}

func refSortQpoints(qs []qpoint) {
	slices.SortFunc(qs, func(a, b qpoint) int {
		if c := cmp.Compare(a.code, b.code); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

func refMorton3(x, y, z uint64, bits uint) uint64 {
	var out uint64
	for i := uint(0); i < bits; i++ {
		out |= ((x >> i) & 1) << (3 * i)
		out |= ((y >> i) & 1) << (3*i + 1)
		out |= ((z >> i) & 1) << (3*i + 2)
	}
	return out
}

func refColorChannel(p pointcloud.Point, ch int) int64 {
	switch ch {
	case 0:
		return int64(p.G)
	case 1:
		return int64(p.R) - int64(p.G)
	default:
		return int64(p.B) - int64(p.G)
	}
}

func refOctreeEncode(buf []byte, codes []uint64, qb uint) []byte {
	if len(codes) == 0 {
		return buf
	}
	return refOctreeNode(buf, codes, 3*int(qb)-3)
}

func refOctreeNode(buf []byte, codes []uint64, shift int) []byte {
	if shift < 0 {
		return buf
	}
	// Partition the (sorted) codes by their 3-bit digit at shift.
	var bounds [9]int
	idx := 0
	for child := uint64(0); child < 8; child++ {
		bounds[child] = idx
		for idx < len(codes) && (codes[idx]>>uint(shift))&7 == child {
			idx++
		}
	}
	bounds[8] = idx
	var occ byte
	for child := 0; child < 8; child++ {
		if bounds[child+1] > bounds[child] {
			occ |= 1 << uint(child)
		}
	}
	buf = append(buf, occ)
	for child := 0; child < 8; child++ {
		if bounds[child+1] > bounds[child] {
			buf = refOctreeNode(buf, codes[bounds[child]:bounds[child+1]], shift-3)
		}
	}
	return buf
}

func refEncodeLayered(p Params, id cell.ID, c *pointcloud.Cloud, qs []qpoint, cellBounds geom.AABB, edge float64) *Block {
	qb := uint(p.QuantBits)
	L := int(p.Layers)

	// Deduplicate full-depth codes; firstQ holds the qs index of each
	// node's representative (its first point in (code, idx) order).
	up, cp := getU64(len(qs)), getU64(len(qs))
	defer func() { putU64(up); putU64(cp) }()
	uniques, counts := *up, *cp
	firstQ := make([]int, 0, len(qs))
	hasDup := false
	for i := 0; i < len(qs); {
		j := i
		for j < len(qs) && qs[j].code == qs[i].code {
			j++
		}
		uniques = append(uniques, qs[i].code)
		counts = append(counts, uint64(j-i))
		firstQ = append(firstQ, i)
		if j-i > 1 {
			hasDup = true
		}
		i = j
	}
	*up, *cp = uniques, counts
	U := len(uniques)

	// starts[t][i] is the uniques index where the i-th depth-d_t node
	// begins; coarser tiers group finer ones by dropping 3 code bits.
	starts := make([][]int, L)
	full := make([]int, U)
	for i := range full {
		full[i] = i
	}
	starts[L-1] = full
	for t := L - 2; t >= 0; t-- {
		shift := uint(3 * (L - 1 - t))
		s := make([]int, 0, len(starts[t+1]))
		for _, ui := range starts[t+1] {
			if len(s) == 0 || uniques[ui]>>shift != uniques[s[len(s)-1]]>>shift {
				s = append(s, ui)
			}
		}
		starts[t] = s
	}

	rep := func(ui int) pointcloud.Point { return c.Points[qs[firstQ[ui]].idx] }

	seg := getBuf(16 + len(qs)*6)
	defer putBuf(seg)
	segEnds := make([]int, L)
	layerPts := make([]int, L)

	// Base segment: occupancy tree to d_0 plus absolute rep colors.
	segStart := 0
	{
		base := starts[0]
		cg := getU64(len(base))
		codes0 := *cg
		shift := uint(3 * (L - 1))
		for _, ui := range base {
			codes0 = append(codes0, uniques[ui]>>shift)
		}
		seg = refOctreeEncode(seg, codes0, qb-uint(L-1))
		*cg = codes0
		putU64(cg)
		for ch := 0; ch < 3; ch++ {
			var prev int64
			var zrun uint64
			for _, ui := range base {
				v := refColorChannel(rep(ui), ch)
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
		layerPts[0] = len(base)
		if L == 1 {
			seg = refAppendDupExtras(seg, c, qs, uniques, counts, firstQ, hasDup)
			layerPts[0] = len(qs)
		}
		seg = binary.LittleEndian.AppendUint32(seg, checksum(seg[segStart:]))
		segEnds[0] = len(seg)
	}

	// Enhancement segments: per-parent occupancy byte, then residual
	// colors for the non-first children.
	for t := 1; t < L; t++ {
		segStart = len(seg)
		parents, children := starts[t-1], starts[t]
		shift := uint(3 * (L - 1 - t))
		ci := 0
		for pi := range parents {
			pe := U
			if pi+1 < len(parents) {
				pe = parents[pi+1]
			}
			var occ byte
			for ci < len(children) && children[ci] < pe {
				occ |= 1 << ((uniques[children[ci]] >> shift) & 7)
				ci++
			}
			seg = append(seg, occ)
		}
		for ch := 0; ch < 3; ch++ {
			var zrun uint64
			ci = 0
			for pi, ps := range parents {
				pe := U
				if pi+1 < len(parents) {
					pe = parents[pi+1]
				}
				pv := refColorChannel(rep(ps), ch)
				first := true
				for ci < len(children) && children[ci] < pe {
					if first {
						first = false
						ci++
						continue
					}
					d := zigzag(refColorChannel(rep(children[ci]), ch) - pv)
					ci++
					if d == 0 {
						zrun++
						continue
					}
					seg = flushZeroRun(seg, &zrun)
					seg = binary.AppendUvarint(seg, d)
				}
			}
			seg = flushZeroRun(seg, &zrun)
		}
		layerPts[t] = len(children)
		if t == L-1 {
			seg = refAppendDupExtras(seg, c, qs, uniques, counts, firstQ, hasDup)
			layerPts[t] = len(qs)
		}
		seg = binary.LittleEndian.AppendUint32(seg, checksum(seg[segStart:]))
		segEnds[t] = len(seg)
	}

	hdr := getBuf(32 + 5*L)
	defer putBuf(hdr)
	hdr = binary.LittleEndian.AppendUint16(hdr, Magic)
	hdr = append(hdr, VersionLayered, p.QuantBits, ModeLayered, byte(L))
	hdr = binary.AppendUvarint(hdr, uint64(id))
	hdr = binary.AppendUvarint(hdr, uint64(len(qs)))
	hdr = appendFloat32(hdr, cellBounds.Min.X)
	hdr = appendFloat32(hdr, cellBounds.Min.Y)
	hdr = appendFloat32(hdr, cellBounds.Min.Z)
	hdr = appendFloat32(hdr, edge)
	prev := 0
	for t := 0; t < L; t++ {
		hdr = binary.AppendUvarint(hdr, uint64(segEnds[t]-prev))
		prev = segEnds[t]
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, checksum(hdr))

	data := make([]byte, 0, len(hdr)+len(seg))
	data = append(data, hdr...)
	data = append(data, seg...)
	offsets := make([]int, L)
	for t := range segEnds {
		offsets[t] = len(hdr) + segEnds[t]
	}
	return &Block{CellID: id, NumPoints: len(qs), Data: data, LayerOffsets: offsets, LayerPoints: layerPts}
}

func refAppendDupExtras(seg []byte, c *pointcloud.Cloud, qs []qpoint, uniques, counts []uint64, firstQ []int, hasDup bool) []byte {
	if len(qs) == 0 {
		return seg
	}
	if !hasDup {
		return append(seg, 0)
	}
	seg = append(seg, 1)
	for _, cnt := range counts {
		seg = binary.AppendUvarint(seg, cnt-1)
	}
	for ch := 0; ch < 3; ch++ {
		var zrun uint64
		for ui := range uniques {
			rv := refColorChannel(c.Points[qs[firstQ[ui]].idx], ch)
			for j := firstQ[ui] + 1; j < firstQ[ui]+int(counts[ui]); j++ {
				d := zigzag(refColorChannel(c.Points[qs[j].idx], ch) - rv)
				if d == 0 {
					zrun++
					continue
				}
				seg = flushZeroRun(seg, &zrun)
				seg = binary.AppendUvarint(seg, d)
			}
		}
		seg = flushZeroRun(seg, &zrun)
	}
	return seg
}

// refCell is one differential case: a cloud, the indices to encode and
// the cell bounds they are quantized against.
type refCell struct {
	name   string
	c      *pointcloud.Cloud
	idxs   []int
	bounds geom.AABB
}

// refCells builds the seeded cell shapes the kernel must reproduce: the
// degenerate sizes, duplicates, index orders no partition produces, and
// points on and beyond the cell's faces.
func refCells(t testing.TB) []refCell {
	t.Helper()
	unit := geom.AABB{Min: geom.V(-1, 2, 0.5), Max: geom.V(-0.5, 2.5, 1)}
	rng := rand.New(rand.NewSource(7))
	cloud := func(n int, pos func(i int) geom.Vec3) *pointcloud.Cloud {
		c := &pointcloud.Cloud{Points: make([]pointcloud.Point, n)}
		for i := range c.Points {
			c.Points[i] = pointcloud.Point{Pos: pos(i), R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		}
		return c
	}
	inside := func(int) geom.Vec3 {
		return unit.Min.Add(geom.V(rng.Float64(), rng.Float64(), rng.Float64()).Scale(0.5))
	}
	var cells []refCell
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, 3000} {
		c := cloud(n, inside)
		cells = append(cells, refCell{fmt.Sprintf("uniform%d", n), c, allIdxs(c), unit})
	}
	// Every point on one lattice site; then a few sites shared by many.
	one := cloud(500, func(int) geom.Vec3 { return unit.Min.Add(geom.V(0.3, 0.1, 0.2)) })
	cells = append(cells, refCell{"alldup", one, allIdxs(one), unit})
	sites := make([]geom.Vec3, 40)
	for i := range sites {
		sites[i] = inside(i)
	}
	heavy := cloud(2000, func(int) geom.Vec3 { return sites[rng.Intn(len(sites))] })
	cells = append(cells, refCell{"heavydup", heavy, allIdxs(heavy), unit})
	// Points exactly on the max faces and well outside the cell (clamped).
	faces := cloud(600, func(i int) geom.Vec3 {
		p := inside(i)
		switch i % 6 {
		case 0:
			p.X = unit.Max.X
		case 1:
			p.Y = unit.Max.Y
		case 2:
			p = unit.Max
		case 3:
			p = p.Add(geom.V(0.7, -0.9, 0.2))
		case 4:
			p = unit.Min
		}
		return p
	})
	cells = append(cells, refCell{"faces", faces, allIdxs(faces), unit})

	// Index lists no partition yields: shuffled, strided, repeated.
	base := cloud(1500, inside)
	shuffled := allIdxs(base)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cells = append(cells, refCell{"shuffled", base, shuffled, unit})
	var strided, repeated []int
	for i := 0; i < len(base.Points); i += 3 {
		strided = append(strided, i)
	}
	for i := 0; i < 900; i++ {
		repeated = append(repeated, rng.Intn(200))
	}
	cells = append(cells, refCell{"strided", base, strided, unit}, refCell{"repeated", base, repeated, unit})
	few := []int{5, 3, 3, 9, 1, 5}
	cells = append(cells, refCell{"fewshuffled", heavy, few, unit})

	// A real body-surface cell: the fullest one of a 50 K-point frame.
	c, idxs, bounds := layeredTestCellSimple(t, 50_000, 17)
	return append(cells, refCell{"synth50k", c, idxs, bounds})
}

// TestEncodeMatchesReferenceByteExact pins the encode kernel to the
// encoder it replaced: same bytes, same layer offsets, same layer point
// counts, for every (QuantBits, Layers) pair.
func TestEncodeMatchesReferenceByteExact(t *testing.T) {
	var params []Params
	for qb := uint8(1); qb <= 16; qb++ {
		for l := uint8(1); l <= qb; l++ {
			params = append(params, Params{QuantBits: qb, Layers: l})
		}
	}
	for _, rc := range refCells(t) {
		ps := params
		if len(rc.idxs) > 10_000 && testing.Short() {
			ps = []Params{{QuantBits: 10, Layers: 4}, {QuantBits: 10, Layers: 1}}
		}
		for _, p := range ps {
			enc := NewEncoder(p)
			got := enc.encodeCell(3, rc.c, rc.idxs, rc.bounds)
			want := refEncodeCell(enc, 3, rc.c, rc.idxs, rc.bounds)
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%s %+v: block bytes differ (%d vs reference %d)", rc.name, p, len(got.Data), len(want.Data))
			}
			if cap(got.Data) != len(got.Data) {
				t.Fatalf("%s %+v: layered block holds %d spare bytes; the header length sum is off", rc.name, p, cap(got.Data)-len(got.Data))
			}
			if got.NumPoints != want.NumPoints ||
				!reflect.DeepEqual(got.LayerOffsets, want.LayerOffsets) ||
				!reflect.DeepEqual(got.LayerPoints, want.LayerPoints) {
				t.Fatalf("%s %+v: block shape differs: %d %v %v vs reference %d %v %v", rc.name, p,
					got.NumPoints, got.LayerOffsets, got.LayerPoints, want.NumPoints, want.LayerOffsets, want.LayerPoints)
			}
		}
	}
}

// TestMortonMatchesReference checks the bit-spread interleave against the
// bit loop at every width either can hold, on inputs with stray high bits.
func TestMortonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for bits := uint(0); bits <= 21; bits++ {
		for i := 0; i < 2000; i++ {
			x, y, z := rng.Uint64(), rng.Uint64(), rng.Uint64()
			if got, want := morton3(x, y, z, bits), refMorton3(x, y, z, bits); got != want {
				t.Fatalf("morton3(%#x, %#x, %#x, %d) = %#x, reference %#x", x, y, z, bits, got, want)
			}
		}
	}
}

// codesFromFuzz turns arbitrary bytes into a sorted, unique code set of
// the given depth: 8-byte words masked to 3*qb bits.
func codesFromFuzz(data []byte, qb uint) []uint64 {
	mask := uint64(1)<<(3*qb) - 1
	codes := make([]uint64, 0, len(data)/8)
	for ; len(data) >= 8; data = data[8:] {
		codes = append(codes, binary.LittleEndian.Uint64(data)&mask)
	}
	slices.Sort(codes)
	return slices.Compact(codes)
}

// FuzzOctreeEncodeMatchesReference drives the one-pass octree against the
// recursive reference over arbitrary code sets, and round-trips the
// stream through the decoder.
func FuzzOctreeEncodeMatchesReference(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(10), binary.LittleEndian.AppendUint64(nil, 0x2aaaaaaa))
	f.Fuzz(func(t *testing.T, depth uint8, data []byte) {
		qb := uint(depth)%21 + 1
		codes := codesFromFuzz(data, qb)
		got, want := octreeEncode(nil, codes, qb), refOctreeEncode(nil, codes, qb)
		if !bytes.Equal(got, want) {
			t.Fatalf("qb %d, %d codes: octreeEncode differs from reference", qb, len(codes))
		}
		if len(codes) == 0 {
			return
		}
		rest, back, ok := octreeDecodeBounded(got, len(codes), qb, nil)
		if !ok || len(rest) != 0 || !slices.Equal(back, codes) {
			t.Fatalf("qb %d, %d codes: stream does not decode back to its codes", qb, len(codes))
		}
	})
}

// maxWarmLayeredAllocs is what a layered EncodeCell may allocate once the
// pools are warm: the Block, its Data, and the slice LayerOffsets and
// LayerPoints share. It was 19 before the encode kernel.
const maxWarmLayeredAllocs = 3

func TestLayeredEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, idxs, bounds := layeredTestCellSimple(t, 20_000, 17)
	enc := NewEncoder(Params{QuantBits: 10, Layers: 4})
	enc.EncodeCell(1, c, idxs, bounds)
	if got := testing.AllocsPerRun(20, func() { enc.EncodeCell(1, c, idxs, bounds) }); got > maxWarmLayeredAllocs {
		t.Fatalf("warm layered EncodeCell: %.0f allocs, gate %d", got, maxWarmLayeredAllocs)
	}
}

// The decoder as it stood before the decode kernel (DESIGN.md §16), kept
// verbatim apart from the ref prefix: the recursive occupancy walk, the
// bit-loop de-Morton, the residReader called once per child and the
// eight pooled slices. The differential tests below pin the kernel to it
// point for point. It shares parseHeader and segment with the kernel.

// refDecode is the uncached decode path: a whole block or any whole-segment
// prefix of one. The header and each layer segment carry their own
// checksum, so every prefix verifies on its own.
func refDecode(data []byte) (*DecodedCell, error) {
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
	rest, codes, ok := refOctreeDecodeBounded(pay, M, qb-uint(L-1), (*codeBuf[0])[:0])
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
			rd := refResidReader{p: pay}
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
			x, y, z := refDemorton3(code, depth)
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
		x, y, z := refDemorton3(code, depth)
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
		rd := refResidReader{p: pay}
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

// refResidReader streams zigzag residual symbols with zero-run RLE (the 0
// symbol introduces a run length).
type refResidReader struct {
	p   []byte
	run uint64
}

func (r *refResidReader) next() (int64, error) {
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
func (r *refResidReader) done() error {
	if r.run != 0 {
		return ErrTruncated
	}
	return nil
}

func refOctreeDecodeNode(buf []byte, shift int, prefix uint64, out *[]uint64, max int) ([]byte, bool) {
	if shift < 0 {
		if len(*out) >= max {
			return nil, false
		}
		*out = append(*out, prefix)
		return buf, true
	}
	if len(buf) == 0 {
		return nil, false
	}
	occ := buf[0]
	buf = buf[1:]
	if occ == 0 {
		return nil, false // a visited node must have children
	}
	for child := 0; child < 8; child++ {
		if occ&(1<<uint(child)) == 0 {
			continue
		}
		var ok bool
		buf, ok = refOctreeDecodeNode(buf, shift-3, prefix|uint64(child)<<uint(shift), out, max)
		if !ok {
			return nil, false
		}
	}
	return buf, true
}

// refOctreeDecodeBounded decodes at most maxLeaves leaves; the leaf count
// may be smaller than the point count (duplicates collapse into one
// leaf). The leaves accumulate into scratch (grown as needed), so callers
// can recycle the backing array.
func refOctreeDecodeBounded(buf []byte, maxLeaves int, qb uint, scratch []uint64) (rest []byte, codes []uint64, ok bool) {
	codes = scratch[:0]
	rest, ok = refOctreeDecodeNode(buf, 3*int(qb)-3, 0, &codes, maxLeaves)
	if !ok {
		return nil, nil, false
	}
	return rest, codes, true
}

// refDemorton3 inverts morton3.
func refDemorton3(code uint64, bits uint) (x, y, z uint64) {
	for i := uint(0); i < bits; i++ {
		x |= ((code >> (3 * i)) & 1) << i
		y |= ((code >> (3*i + 1)) & 1) << i
		z |= ((code >> (3*i + 2)) & 1) << i
	}
	return x, y, z
}

// sameDecode fails the test unless the kernel and the reference decoder
// agree on data: the same error, or the same cell point for point.
func sameDecode(t *testing.T, what string, data []byte) *DecodedCell {
	t.Helper()
	var dec Decoder
	got, gerr := dec.decode(data)
	want, werr := refDecode(data)
	if gerr != werr {
		t.Fatalf("%s: decode error %v, reference %v", what, gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	if got.CellID != want.CellID || len(got.Points) != len(want.Points) || (got.Points == nil) != (want.Points == nil) {
		t.Fatalf("%s: cell %d with %d points, reference cell %d with %d", what,
			got.CellID, len(got.Points), want.CellID, len(want.Points))
	}
	for i := range got.Points {
		if pointBits(got.Points[i]) != pointBits(want.Points[i]) {
			t.Fatalf("%s: point %d is %+v, reference %+v", what, i, got.Points[i], want.Points[i])
		}
	}
	return got
}

// pointBits is a point as the bits it is made of: == on it is == on the
// point, except that it also holds for the NaN coordinates a hostile
// header's origin decodes to (and tells -0 from 0).
func pointBits(p pointcloud.Point) [4]uint64 {
	return [4]uint64{math.Float64bits(p.Pos.X), math.Float64bits(p.Pos.Y), math.Float64bits(p.Pos.Z),
		uint64(p.R)<<16 | uint64(p.G)<<8 | uint64(p.B)}
}

// TestDecodeMatchesReference pins the decode kernel to the decoder it
// replaced: every layer prefix of every (QuantBits, Layers) encode of the
// seeded cell shapes decodes to the same points, compared bit for bit.
func TestDecodeMatchesReference(t *testing.T) {
	for _, rc := range refCells(t) {
		for qb := uint8(1); qb <= 16; qb++ {
			for l := uint8(1); l <= qb; l++ {
				p := Params{QuantBits: qb, Layers: l}
				// The body-surface cell is there for its size, not its
				// parameters: it runs at the streamed depth only.
				if len(rc.idxs) > 10_000 && (qb != 10 || testing.Short() && l != 1 && l != 4) {
					continue
				}
				blk := NewEncoder(p).encodeCell(3, rc.c, rc.idxs, rc.bounds)
				for tier := 1; tier <= int(l); tier++ {
					what := fmt.Sprintf("%s %+v prefix %d", rc.name, p, tier)
					dc := sameDecode(t, what, blk.Prefix(tier))
					if dc == nil {
						t.Fatalf("%s: a layer prefix does not decode", what)
					}
					if len(dc.Points) != blk.PointsAtTier(tier) {
						t.Fatalf("%s: %d points, PointsAtTier says %d", what, len(dc.Points), blk.PointsAtTier(tier))
					}
				}
			}
		}
	}
}

// TestDemortonMatchesReference checks the shift-and-mask de-interleave
// against the bit loop at every width, on codes with stray high bits.
func TestDemortonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for bits := uint(0); bits <= 21; bits++ {
		for i := 0; i < 2000; i++ {
			code := rng.Uint64()
			x, y, z := demorton3(code, bits)
			rx, ry, rz := refDemorton3(code, bits)
			if x != rx || y != ry || z != rz {
				t.Fatalf("demorton3(%#x, %d) = %#x %#x %#x, reference %#x %#x %#x", code, bits, x, y, z, rx, ry, rz)
			}
		}
	}
}

// FuzzDecodeMatchesReference feeds the kernel and the reference decoder
// the same arbitrary bytes, as given and with their checksums resealed:
// they must fail alike or return the same points.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Add(emptyBlockClaiming(1 << 40))
	for _, rc := range refCells(f) {
		if len(rc.idxs) > 2000 {
			continue
		}
		for _, p := range []Params{{QuantBits: 10, Layers: 1}, {QuantBits: 6, Layers: 3}} {
			blk := NewEncoder(p).encodeCell(5, rc.c, rc.idxs, rc.bounds)
			for tier := 1; tier <= blk.Layers(); tier++ {
				f.Add(blk.Prefix(tier))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, "as given", data)
		sameDecode(t, "resealed", reseal(append([]byte(nil), data...)))
	})
}
