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
