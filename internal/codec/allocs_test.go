package codec

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

// residuals codes rs as the kernels read them: each residual zigzagged,
// a run of zeros as the pair (0, run).
func residuals(rs ...int64) []byte {
	var p []byte
	var zrun uint64
	for _, r := range rs {
		if r == 0 {
			zrun++
			continue
		}
		p = flushZeroRun(p, &zrun)
		p = binary.AppendUvarint(p, zigzag(r))
	}
	return flushZeroRun(p, &zrun)
}

// TestHotPathAllocs holds the codec's kernels to zero allocations, each
// through its branches: the octree coder on a full tree, an empty one and
// each malformed stream; the residual readers on one-byte residuals,
// multi-byte ones, zero runs and bad streams; the expansions on single-
// and many-child nodes; the output writers with and without duplicates.
// The pool helpers, and the radix sort that draws its scratch from one,
// are counted at steady state, after AllocsPerRun's warm-up call; they
// skip under the race detector, which drops pooled items at random.
func TestHotPathAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(49))

	const qb = 6
	var codes []uint64
	for len(codes) < 400 {
		codes = append(codes, uint64(rnd.Int63n(1<<(3*qb))))
	}
	slices.Sort(codes)
	codes = slices.Compact(codes)
	tree := octreeEncode(nil, codes, qb)
	treeBuf := make([]byte, 0, len(tree))
	leaves := make([]uint64, len(codes))

	const n = 500
	cloud := &pointcloud.Cloud{Points: make([]pointcloud.Point, n)}
	shuffled, ascending := make([]qpoint, n), make([]qpoint, n)
	var codeBits uint64
	for i, j := range rnd.Perm(n) {
		p := &cloud.Points[i]
		p.R, p.G, p.B = uint8(rnd.Intn(256)), uint8(rnd.Intn(256)), uint8(rnd.Intn(256))
		shuffled[i] = qpoint{code: uint64(rnd.Int63n(1 << 30)), idx: j}
		ascending[i] = qpoint{code: shuffled[i].code, idx: i}
		codeBits |= shuffled[i].code
	}
	work, tmp, planes := make([]qpoint, n), make([]qpoint, n), make([]int64, 3*n)
	sorted := func(src []qpoint, idxAscending bool) func() {
		return func() {
			copy(work, src)
			sortQpoints(work[:len(src)], codeBits, idxAscending)
		}
	}

	// One parent layer: single-child bytes (a copy, no residual), a full
	// byte and two-child ones.
	parents := []uint64{3, 9, 10, 40}
	occ := []byte{0x01, 0xff, 0x24, 0x80}
	children := make([]uint64, 8*len(parents))
	oldv := []int64{5, -7, 300, 0}
	newv := make([]int64, 1+8+2+1)
	expand := residuals(1, -1, 0, 0, 0, 200, -3000, 0, 4)

	vals := make([]int64, 12)
	deltas := residuals(1, -2, 0, 0, 0, 0, 500, -70000, 3, 0, 0, 1)
	deltaRun := residuals(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // outlasts the plane

	counts := []uint64{1, 1, 3, 200, 1}
	var total int
	var dupCounts []byte
	for _, c := range counts {
		total += int(c)
		dupCounts = binary.AppendUvarint(dupCounts, c-1)
	}
	readCounts := make([]uint64, len(counts))
	pts := make([]pointcloud.Point, total)
	emitCodes := []uint64{1, 2, 7, 63, 64}
	g, rg, bg := []int64{10, 300, -5, 128, 64}, []int64{0, -40, 3, 2, 1}, []int64{1, 2, 3, 4, 400}
	dupG := make([]int64, total-len(counts))
	dups := make([]int64, len(dupG))
	for i := range dups {
		dups[i] = int64(i%5) - 2
	}
	dupResid := residuals(dups...)

	type row struct {
		name string
		pool bool
		// run makes the call and reports whether it succeeded; ok is the
		// outcome the row's inputs must give, so each row is known to
		// take the branch it names.
		run func() bool
		ok  bool
	}
	do := func(f func()) func() bool { return func() bool { f(); return true } }
	walk := func(buf []byte, depth int, out []uint64) func() bool {
		return func() bool { _, _, ok := octreeWalk(buf, depth, out); return ok }
	}
	pos := func(f func() (int, bool)) func() bool {
		return func() bool { _, ok := f(); return ok }
	}
	rows := []row{
		{"getQpoints", true, do(func() { putQpoints(getQpoints(n)) }), true},
		{"getU64", true, do(func() { putU64(getU64(n)) }), true},
		{"getI64", true, do(func() { putI64(getI64(n)) }), true},
		{"getDecodeScratch", true, do(func() { putDecodeScratch(getDecodeScratch(n)) }), true},
		{"getBuf", true, do(func() { putBuf(getBuf(n)) }), true},
		{"octreeEncode", false, do(func() { octreeEncode(treeBuf[:0], codes, qb) }), true},
		{"octreeEncode/empty", false, do(func() { octreeEncode(treeBuf[:0], nil, qb) }), true},
		{"octreeWalk", false, walk(tree, qb, leaves), true},
		{"octreeWalk/bad-depth", false, walk(tree, 0, leaves), false},
		{"octreeWalk/truncated", false, walk(tree[:len(tree)/2], qb, leaves), false},
		{"octreeWalk/too-many-leaves", false, walk(tree, qb, leaves[:len(leaves)-1]), false},
		{"sortQpoints/insertion", false, do(sorted(shuffled[:radixMin-1], false)), true},
		{"sortQpoints/radix", true, do(sorted(ascending, true)), true},
		{"sortQpoints/radix-by-idx", true, do(sorted(shuffled, false)), true},
		{"radixByCode", false, do(func() { copy(work, shuffled); radixByCode(work, tmp, codeBits) }), true},
		{"gatherColors", false, do(func() { gatherColors(planes, cloud, shuffled) }), true},
		{"readDeltaPlane", false, pos(func() (int, bool) { return readDeltaPlane(vals, deltas, 0) }), true},
		{"readDeltaPlane/truncated", false, pos(func() (int, bool) { return readDeltaPlane(vals, deltas[:len(deltas)-4], 0) }), false},
		{"readDeltaPlane/run-too-long", false, pos(func() (int, bool) { return readDeltaPlane(vals, deltaRun, 0) }), false},
		{"expandCodes", false, pos(func() (int, bool) { return expandCodes(children, parents, occ) }), true},
		{"expandCodes/empty-node", false, pos(func() (int, bool) { return expandCodes(children, parents, []byte{0x01, 0x00}) }), false},
		{"expandCodes/too-many", false, pos(func() (int, bool) { return expandCodes(children[:9], parents, occ) }), false},
		{"expandPlane", false, pos(func() (int, bool) { return expandPlane(newv, oldv, occ, expand, 0) }), true},
		{"expandPlane/truncated", false, pos(func() (int, bool) { return expandPlane(newv, oldv, occ, expand[:3], 0) }), false},
		{"readDupCounts", false, pos(func() (int, bool) { return readDupCounts(readCounts, total, dupCounts, 0) }), true},
		{"readDupCounts/bad-total", false, pos(func() (int, bool) { return readDupCounts(readCounts, total+1, dupCounts, 0) }), false},
		{"readDupCounts/count-past-N", false, pos(func() (int, bool) { return readDupCounts(readCounts, 100, dupCounts, 0) }), false},
		{"emitPoints", false, do(func() {
			emitPoints(pts[:len(counts)], emitCodes, nil, g, rg, bg, qb, geom.V(-1, 0, 2), 0.01)
		}), true},
		{"emitPoints/duplicates", false, do(func() {
			emitPoints(pts, emitCodes, counts, g, rg, bg, qb, geom.V(-1, 0, 2), 0.01)
		}), true},
		{"emitDupColors", false, func() bool {
			ok := true
			for ch := 0; ch < 3; ch++ {
				_, chOK := emitDupColors(pts, counts, g, dupG, ch, dupResid, 0)
				ok = ok && chOK
			}
			return ok
		}, true},
		{"emitDupColors/truncated", false, pos(func() (int, bool) { return emitDupColors(pts, counts, g, dupG, 0, dupResid[:5], 0) }), false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.pool && raceEnabled {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
			if ok := r.run(); ok != r.ok {
				t.Fatalf("%s succeeded = %v, want %v", r.name, ok, r.ok)
			}
			if a := testing.AllocsPerRun(100, func() { r.run() }); a != 0 {
				t.Errorf("%s allocates %v per call, want 0", r.name, a)
			}
		})
	}
}
