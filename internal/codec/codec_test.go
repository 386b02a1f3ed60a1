package codec

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

func testFrameAndGrid(t testing.TB, points int, seed int64) (*pointcloud.Cloud, *cell.Grid) {
	t.Helper()
	cfg := pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: points, Seed: seed, Sway: 1}
	c := pointcloud.SynthFrame(cfg, 0)
	b, ok := c.Bounds()
	if !ok {
		t.Fatal("no bounds")
	}
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func TestRoundTripFrame(t *testing.T) {
	c, g := testFrameAndGrid(t, 20_000, 1)
	enc := NewEncoder(DefaultParams())
	blocks := enc.EncodeFrame(g, c)
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	var dec Decoder
	out, err := dec.DecodeFrame(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != c.Len() {
		t.Fatalf("decoded %d points, want %d", out.Len(), c.Len())
	}
	// Quantization error bound: 10 bits over a <=1m-ish cell edge.
	// Each decoded point must be near SOME original point; verify via the
	// per-cell path below instead of O(n^2) here.
}

func TestRoundTripCellExact(t *testing.T) {
	// With points already on the voxel centers of the quantization lattice
	// the round trip must be exact in position and color — duplicates
	// included (800 points in 256³ collide now and then).
	bounds := geom.NewAABB(geom.V(0, 0, 0), geom.V(0.5, 0.5, 0.5))
	for _, tc := range []struct {
		qb     uint8
		points int
		seed   int64
	}{{10, 500, 5}, {8, 800, 13}} {
		levels := 1 << tc.qb
		step := 0.5 / float64(levels)
		cl := &pointcloud.Cloud{}
		r := rand.New(rand.NewSource(tc.seed))
		for i := 0; i < tc.points; i++ {
			cl.Points = append(cl.Points, pointcloud.Point{
				Pos: geom.V(
					(float64(r.Intn(levels))+0.5)*step,
					(float64(r.Intn(levels))+0.5)*step,
					(float64(r.Intn(levels))+0.5)*step,
				),
				R: uint8(r.Intn(256)), G: uint8(r.Intn(256)), B: uint8(r.Intn(256)),
			})
		}
		enc := NewEncoder(Params{QuantBits: tc.qb})
		blk := enc.EncodeCell(7, cl, allIdxs(cl), bounds)
		if blk.CellID != 7 || blk.NumPoints != cl.Len() {
			t.Fatalf("qb %d: block meta wrong: %+v", tc.qb, blk)
		}
		var dec Decoder
		out, err := dec.Decode(blk.Data)
		if err != nil {
			t.Fatal(err)
		}
		if out.CellID != 7 || len(out.Points) != cl.Len() {
			t.Fatalf("qb %d: decoded cell %d with %d of %d points", tc.qb, out.CellID, len(out.Points), cl.Len())
		}
		// Decoder outputs Morton order; match as multisets via map keyed on
		// lattice coordinates.
		type key struct {
			x, y, z int
			r, g, b uint8
		}
		keyOf := func(p pointcloud.Point) key {
			return key{int(p.Pos.X / step), int(p.Pos.Y / step), int(p.Pos.Z / step), p.R, p.G, p.B}
		}
		want := map[key]int{}
		for _, p := range cl.Points {
			want[keyOf(p)]++
		}
		for _, p := range out.Points {
			k := keyOf(p)
			if want[k] == 0 {
				t.Fatalf("qb %d: unexpected decoded point %v", tc.qb, p)
			}
			want[k]--
		}
	}
}

func TestQuantizationError(t *testing.T) {
	c, g := testFrameAndGrid(t, 10_000, 2)
	enc := NewEncoder(Params{QuantBits: 10})
	parts := g.Partition(c)
	var dec Decoder
	for id, idxs := range parts {
		blk := enc.EncodeCell(id, c, idxs, g.Bounds(id))
		out, err := dec.Decode(blk.Data)
		if err != nil {
			t.Fatal(err)
		}
		// Max error per axis: half a voxel of the cell edge.
		maxErr := g.Size() / float64(uint64(1)<<10)
		cb := g.Bounds(id).Expand(maxErr)
		for _, p := range out.Points {
			if !cb.Contains(p.Pos) {
				t.Fatalf("decoded point %v escaped cell %v", p.Pos, g.Bounds(id))
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	c, g := testFrameAndGrid(t, 2000, 3)
	enc := NewEncoder(DefaultParams())
	blocks := enc.EncodeFrame(g, c)
	var blk *Block
	for _, b := range blocks {
		blk = b
		break
	}
	var dec Decoder

	if _, err := dec.Decode(nil); err != ErrTruncated {
		t.Errorf("nil: %v", err)
	}
	if _, err := dec.Decode([]byte{1, 2, 3}); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	// Corrupt one payload byte: checksum must catch it.
	bad := append([]byte(nil), blk.Data...)
	bad[10] ^= 0xFF
	if _, err := dec.Decode(bad); err != ErrChecksum {
		t.Errorf("corrupt: %v", err)
	}
	// Truncate and re-checksum: decoder must flag truncation, not panic.
	trunc := append([]byte(nil), blk.Data[:len(blk.Data)/2]...)
	// (no valid checksum -> checksum error is also acceptable)
	if _, err := dec.Decode(trunc); err == nil {
		t.Error("truncated block decoded")
	}
	// Wrong magic with valid checksums.
	m := append([]byte(nil), blk.Data...)
	m[0] = 0
	if _, err := dec.Decode(reseal(m)); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	// Wrong version with valid checksums.
	v := append([]byte(nil), blk.Data...)
	v[2] = 99
	if _, err := dec.Decode(reseal(v)); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
}

// TestDecodeRejectsVersion2 pins the removal of the flat coders: a
// Version-2 block (Morton-delta, encoded by the last commit that had one:
// three points, qb 10, cell 7) is an unsupported version, not garbage.
func TestDecodeRejectsVersion2(t *testing.T) {
	blk, err := hex.DecodeString("4356020a0007030000000000000000000000000000003f" +
		"8eb9a36ed595b5a5019db1a7ac01c8019f0123c801db01126378113a7d202a")
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	if _, err := dec.Decode(blk); err != ErrBadVersion {
		t.Fatalf("version-2 block: %v, want ErrBadVersion", err)
	}
}

// reseal recomputes the header and segment checksums of a (possibly
// mangled) block in place, as far as its segment table can be followed,
// so corruption tests and the fuzzer reach the structural validation
// behind the checksums. Bytes it cannot make sense of are left alone.
func reseal(b []byte) []byte {
	if len(b) < 6 {
		return b
	}
	p := 6
	for i := 0; i < 2; i++ { // cellID, numPoints
		_, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return b
		}
		p += n
	}
	p += 16 // origin, edge
	var segLens []int
	for t := 0; t < int(b[5]) && p < len(b); t++ {
		v, n := binary.Uvarint(b[p:])
		if n <= 0 || v > uint64(len(b)) {
			return b
		}
		p += n
		segLens = append(segLens, int(v))
	}
	if p+4 > len(b) {
		return b
	}
	binary.LittleEndian.PutUint32(b[p:], checksum(b[:p]))
	p += 4
	for _, n := range segLens {
		if n < 4 || p+n > len(b) {
			return b
		}
		binary.LittleEndian.PutUint32(b[p+n-4:], checksum(b[p:p+n-4]))
		p += n
	}
	return b
}

// emptyBlockClaiming is a well-formed block — one layer, one empty
// segment, both checksums valid — whose header claims count points. With
// count = 1<<40 it is the 38-byte block that used to kill the process.
func emptyBlockClaiming(count uint64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, Magic)
	b = append(b, VersionLayered, 10, ModeLayered, 1)
	b = binary.AppendUvarint(b, 7)
	b = binary.AppendUvarint(b, count)
	for _, f := range []float64{0, 0, 0, 0.5} {
		b = appendFloat32(b, f)
	}
	b = binary.AppendUvarint(b, 4)
	b = binary.LittleEndian.AppendUint32(b, checksum(b))
	return binary.LittleEndian.AppendUint32(b, checksum(nil))
}

// TestDecodeRejectsHostileCount is the regression test for the
// header-sized allocation: the decoder used to size ten scratch slices by
// the claimed count before reading a segment, and died out of memory.
func TestDecodeRejectsHostileCount(t *testing.T) {
	if n := len(emptyBlockClaiming(1 << 40)); n != 38 {
		t.Fatalf("hostile block is %d bytes, want 38", n)
	}
	// A count over the cap is a bad header; one under it is bounded by the
	// bytes at hand instead, and fails on its empty segment without sizing
	// scratch for four million points.
	for _, tc := range []struct {
		count uint64
		want  error
	}{{1 << 40, ErrBadGeometry}, {1 << 63, ErrBadGeometry}, {maxBlockPoints, ErrTruncated}} {
		blk := emptyBlockClaiming(tc.count)
		var dec Decoder
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := dec.Decode(blk)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != tc.want {
			t.Fatalf("count %d: %v, want %v", tc.count, err, tc.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("count %d: rejecting the block allocated %d bytes", tc.count, alloc)
		}
		if took > time.Millisecond && !raceEnabled {
			t.Errorf("count %d: rejecting the block took %v", tc.count, took)
		}
	}
}

// FuzzDecode feeds the decoder arbitrary bytes, as given and with their
// checksums resealed: it must return an error or a cell whose point count
// the header bounds — never panic, never allocate by an unchecked count.
func FuzzDecode(f *testing.F) {
	f.Add(emptyBlockClaiming(1 << 40))
	c, idxs, bounds := layeredTestCellSimple(f, 300, 19)
	for _, layers := range []uint8{1, 4} {
		blk := NewEncoder(Params{QuantBits: 10, Layers: layers}).EncodeCell(5, c, idxs, bounds)
		f.Add(blk.Data)
		start := blk.LayerOffsets[0] / 2
		for _, end := range blk.LayerOffsets {
			f.Add(blk.Data[:(start+end)/2]) // truncated mid-segment
			start = end
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		for _, b := range [][]byte{data, reseal(append([]byte(nil), data...))} {
			out, err := dec.Decode(b)
			if err == nil && len(out.Points) > maxBlockPoints {
				t.Fatalf("decoded %d points from %d bytes", len(out.Points), len(b))
			}
		}
	})
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y, z uint16) bool {
		xb, yb, zb := uint64(x)&1023, uint64(y)&1023, uint64(z)&1023
		c := morton3(xb, yb, zb, 10)
		x2, y2, z2 := demorton3(c, 10)
		return x2 == xb && y2 == yb && z2 == zb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonOrderPreserved(t *testing.T) {
	// Morton codes of distinct lattice points are distinct.
	seen := map[uint64]bool{}
	for x := uint64(0); x < 8; x++ {
		for y := uint64(0); y < 8; y++ {
			for z := uint64(0); z < 8; z++ {
				c := morton3(x, y, z, 3)
				if seen[c] {
					t.Fatalf("collision at %d,%d,%d", x, y, z)
				}
				seen[c] = true
			}
		}
	}
	if len(seen) != 512 {
		t.Fatalf("%d codes", len(seen))
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 127, -128, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
	// Small magnitudes map to small codes (varint-friendliness).
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(0) != 0 {
		t.Error("zigzag mapping wrong")
	}
}

func TestCompressionRatio(t *testing.T) {
	c, g := testFrameAndGrid(t, 100_000, 4)
	enc := NewEncoder(DefaultParams())
	blocks := enc.EncodeFrame(g, c)
	s := Measure(blocks)
	if s.Points != c.Len() {
		t.Fatalf("stats points %d != %d", s.Points, c.Len())
	}
	// Raw point = 3×float64 + 3 bytes = 27 bytes = 216 bits. We must do far
	// better; the paper's band (Draco on this content) is ~22-40 bits/pt.
	if s.BitsPerPoint > 60 {
		t.Errorf("compression too weak: %.1f bits/point", s.BitsPerPoint)
	}
	if s.BitsPerPoint < 8 {
		t.Errorf("implausibly strong compression: %.1f bits/point", s.BitsPerPoint)
	}
	t.Logf("bits/point = %.1f, bytes/frame = %d", s.BitsPerPoint, s.Bytes)
}

func TestBitrateMbps(t *testing.T) {
	// 1 MB per frame at 30 fps = 240 Mbps.
	if got := BitrateMbps(1e6, 30); math.Abs(got-240) > 1e-9 {
		t.Errorf("BitrateMbps = %v", got)
	}
}

func TestDecodeRateModel(t *testing.T) {
	d := DefaultDecodeRate()
	// 550K at 30 fps is exactly the ceiling.
	if got := d.MaxFPS(550_000, 30); math.Abs(got-30) > 1e-9 {
		t.Errorf("MaxFPS(550K) = %v", got)
	}
	// Higher point counts decode below 30.
	if got := d.MaxFPS(1_100_000, 30); math.Abs(got-15) > 1e-9 {
		t.Errorf("MaxFPS(1.1M) = %v", got)
	}
	if got := d.MaxFPS(0, 30); got != 30 {
		t.Errorf("MaxFPS(0) = %v", got)
	}
	if got := d.MaxFPS(100, 30); got != 30 {
		t.Errorf("MaxFPS small = %v (cap)", got)
	}
}

func TestEncoderParamClamping(t *testing.T) {
	e := NewEncoder(Params{QuantBits: 0})
	if e.params.QuantBits != DefaultParams().QuantBits {
		t.Error("zero params not defaulted")
	}
	e2 := NewEncoder(Params{QuantBits: 30})
	if e2.params.QuantBits != 16 {
		t.Error("oversized quant bits not clamped")
	}
}

// Property: round trip decode count always matches encode count and no
// error occurs, for random small clouds.
func TestPropertyRoundTripCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		cl := &pointcloud.Cloud{}
		for i := 0; i < n; i++ {
			cl.Points = append(cl.Points, pointcloud.Point{
				Pos: geom.V(r.Float64(), r.Float64(), r.Float64()),
				R:   uint8(r.Intn(256)), G: uint8(r.Intn(256)), B: uint8(r.Intn(256)),
			})
		}
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		enc := NewEncoder(DefaultParams())
		blk := enc.EncodeCell(0, cl, idxs, geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1)))
		var dec Decoder
		out, err := dec.Decode(blk.Data)
		return err == nil && len(out.Points) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeFrame100K(b *testing.B) {
	c, g := testFrameAndGrid(b, 100_000, 1)
	enc := NewEncoder(DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.EncodeFrame(g, c)
	}
}

func BenchmarkDecodeFrame100K(b *testing.B) {
	c, g := testFrameAndGrid(b, 100_000, 1)
	enc := NewEncoder(DefaultParams())
	blocks := enc.EncodeFrame(g, c)
	var dec Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeFrame(blocks); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOctreeRoundTripWithHeavyDuplicates(t *testing.T) {
	bounds := geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1))
	cl := &pointcloud.Cloud{}
	// 50 points at 5 distinct lattice positions.
	for i := 0; i < 50; i++ {
		v := float64(i%5) * 0.2
		cl.Points = append(cl.Points, pointcloud.Point{Pos: geom.V(v, v, v), R: 10, G: 20, B: 30})
	}
	idxs := make([]int, cl.Len())
	for i := range idxs {
		idxs[i] = i
	}
	enc := NewEncoder(Params{QuantBits: 6})
	blk := enc.EncodeCell(0, cl, idxs, bounds)
	var dec Decoder
	out, err := dec.Decode(blk.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 50 {
		t.Fatalf("decoded %d points", len(out.Points))
	}
}

func TestOctreeCorruptionRejected(t *testing.T) {
	c, g := testFrameAndGrid(t, 3000, 8)
	enc := NewEncoder(Params{QuantBits: 8, Layers: 2})
	var dec Decoder
	for _, blk := range enc.EncodeFrame(g, c) {
		// Flip a byte at every position past the fixed header fields and
		// reseal the checksums: the structural validation must reject the
		// block or decode a bounded cell — never panic or over-allocate.
		for pos := 6; pos < len(blk.Data); pos++ {
			bad := append([]byte(nil), blk.Data...)
			bad[pos] ^= 0xFF
			if out, err := dec.Decode(reseal(bad)); err == nil && len(out.Points) > maxBlockPoints {
				t.Fatalf("corrupt block (byte %d) decoded to %d points", pos, len(out.Points))
			}
		}
		break
	}
}
