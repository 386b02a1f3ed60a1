package codec

import (
	"bytes"
	"reflect"
	"testing"

	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

func allIdxs(c *pointcloud.Cloud) []int {
	idxs := make([]int, c.Len())
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

func TestLayeredBlockShape(t *testing.T) {
	c, idxs, bounds := layeredTestCellSimple(t, 20_000, 11)
	enc := NewEncoder(Params{QuantBits: 10, Layers: 4})
	blk := enc.EncodeCell(3, c, idxs, bounds)
	if blk.Data[2] != VersionLayered || blk.Data[4] != ModeLayered {
		t.Fatalf("version/mode bytes = %d/%d", blk.Data[2], blk.Data[4])
	}
	if blk.Layers() != 4 {
		t.Fatalf("layers = %d, want 4", blk.Layers())
	}
	if got := blk.LayerOffsets[3]; got != len(blk.Data) {
		t.Fatalf("final offset %d != len %d", got, len(blk.Data))
	}
	if blk.LayerPoints[3] != blk.NumPoints || blk.NumPoints != len(idxs) {
		t.Fatalf("layer points %v, numPoints %d, want final %d", blk.LayerPoints, blk.NumPoints, len(idxs))
	}
	for tr := 1; tr < 4; tr++ {
		if blk.LayerOffsets[tr] <= blk.LayerOffsets[tr-1] {
			t.Fatalf("offsets not increasing: %v", blk.LayerOffsets)
		}
		if blk.LayerPoints[tr] < blk.LayerPoints[tr-1] {
			t.Fatalf("points not monotone: %v", blk.LayerPoints)
		}
	}
	// Prefixes alias the same backing buffer: base-layer bytes are shared
	// with every enhancement tier rather than re-encoded.
	base := blk.Prefix(1)
	fullStart := blk.Prefix(4)[:len(base)]
	if &base[0] != &fullStart[0] {
		t.Fatal("prefix does not alias block data")
	}
	// Delta covers exactly the gap between prefixes.
	for from := 1; from < 4; from++ {
		for to := from + 1; to <= 4; to++ {
			d := blk.Delta(from, to)
			if len(d) != blk.LayerOffsets[to-1]-blk.LayerOffsets[from-1] {
				t.Fatalf("delta(%d,%d) len %d", from, to, len(d))
			}
		}
	}
	if blk.Delta(3, 2) != nil || blk.Delta(2, 2) != nil {
		t.Fatal("non-upgrade delta must be nil")
	}
}

// layeredTestCellSimple returns the fullest cell of a synthetic frame so
// duplicates and deep trees both occur.
func layeredTestCellSimple(t testing.TB, points int, seed int64) (*pointcloud.Cloud, []int, geom.AABB) {
	t.Helper()
	c, g := testFrameAndGrid(t, points, seed)
	parts := g.Partition(c)
	var best []int
	var bounds geom.AABB
	for id, idxs := range parts {
		if len(idxs) > len(best) {
			best, bounds = idxs, g.Bounds(id)
		}
	}
	return c, best, bounds
}

// TestLayeredPrefixParity pins the layering contract: decoding the
// prefix of t layers is identical to decoding an independent
// single-layer encode of the tier's point set at the tier's depth.
func TestLayeredPrefixParity(t *testing.T) {
	c, idxs, bounds := layeredTestCellSimple(t, 30_000, 12)
	const qb, L = 10, 4
	enc := NewEncoder(Params{QuantBits: qb, Layers: L})
	blk := enc.EncodeCell(9, c, idxs, bounds)
	var dec Decoder
	for tier := 1; tier <= L; tier++ {
		got, err := dec.Decode(blk.Prefix(tier))
		if err != nil {
			t.Fatalf("tier %d: %v", tier, err)
		}
		if len(got.Points) != blk.PointsAtTier(tier) {
			t.Fatalf("tier %d: %d points, PointsAtTier says %d", tier, len(got.Points), blk.PointsAtTier(tier))
		}
		tierPts := enc.TierPoints(c, idxs, bounds, tier)
		tc := &pointcloud.Cloud{Points: tierPts}
		ind := NewEncoder(Params{QuantBits: qb - L + uint8(tier), Layers: 1})
		iblk := ind.EncodeCell(9, tc, allIdxs(tc), bounds)
		want, err := dec.Decode(iblk.Data)
		if err != nil {
			t.Fatalf("tier %d independent: %v", tier, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tier %d prefix decode diverges from independent encode (%d vs %d points)",
				tier, len(got.Points), len(want.Points))
		}
	}
}

// TestLayeredFullRoundTripColors: the full prefix must reproduce every
// input point's color exactly, and positions within half a voxel.
func TestLayeredFullRoundTripColors(t *testing.T) {
	c, idxs, bounds := layeredTestCellSimple(t, 20_000, 13)
	const qb = 10
	enc := NewEncoder(Params{QuantBits: qb, Layers: 3})
	blk := enc.EncodeCell(1, c, idxs, bounds)
	var dec Decoder
	out, err := dec.Decode(blk.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != len(idxs) {
		t.Fatalf("decoded %d points, want %d", len(out.Points), len(idxs))
	}
	type rgb struct{ r, g, b uint8 }
	want := map[rgb]int{}
	for _, i := range idxs {
		p := c.Points[i]
		want[rgb{p.R, p.G, p.B}]++
	}
	for _, p := range out.Points {
		k := rgb{p.R, p.G, p.B}
		if want[k] == 0 {
			t.Fatalf("color %v not in input multiset", k)
		}
		want[k]--
	}
	edge := cellEdge(bounds)
	half := edge / float64(uint64(1)<<qb) // voxel size; centers are within half of it
	cb := bounds.Expand(half)
	for _, p := range out.Points {
		if !cb.Contains(p.Pos) {
			t.Fatalf("point %v escaped cell", p.Pos)
		}
	}
}

func TestLayeredPrefixBoundaries(t *testing.T) {
	c, idxs, bounds := layeredTestCellSimple(t, 8000, 14)
	enc := NewEncoder(Params{QuantBits: 8, Layers: 3})
	blk := enc.EncodeCell(2, c, idxs, bounds)
	var dec Decoder
	// Any cut that is not a segment boundary must be rejected.
	boundary := map[int]bool{}
	for _, off := range blk.LayerOffsets {
		boundary[off] = true
	}
	for cut := len(blk.Data) / 3; cut <= len(blk.Data); cut += 7 {
		_, err := dec.Decode(blk.Data[:cut])
		if boundary[cut] {
			if err != nil {
				t.Fatalf("boundary cut %d rejected: %v", cut, err)
			}
		} else if err == nil {
			t.Fatalf("non-boundary cut %d decoded", cut)
		}
	}
	// Corrupting any segment byte must fail that prefix's checksum.
	for tier := 1; tier <= 3; tier++ {
		bad := append([]byte(nil), blk.Prefix(tier)...)
		bad[len(bad)-6] ^= 0xFF
		if _, err := dec.Decode(bad); err == nil {
			t.Fatalf("tier %d corruption decoded", tier)
		}
	}
	// Header corruption is caught by the header checksum.
	bad := append([]byte(nil), blk.Data...)
	bad[6] ^= 0xFF
	if _, err := dec.Decode(bad); err == nil {
		t.Fatal("header corruption decoded")
	}
}

func TestLayeredParamClamping(t *testing.T) {
	e := NewEncoder(Params{QuantBits: 4, Layers: 9})
	if e.Params().Layers != 4 {
		t.Fatalf("layers not clamped to quantBits: %d", e.Params().Layers)
	}
	e = NewEncoder(Params{Layers: 2})
	if e.Params().QuantBits != 10 || e.Params().Layers != 2 {
		t.Fatalf("zero quantBits with layers: %+v", e.Params())
	}
	// An unset layer count encodes one layer, the same bytes as asking for
	// one, and Layered can still set it.
	c, idxs, bounds := layeredTestCellSimple(t, 1000, 15)
	unset := NewEncoder(Params{QuantBits: 8})
	blk := unset.EncodeCell(1, c, idxs, bounds)
	if blk.Layers() != 1 || len(blk.Prefix(3)) != len(blk.Data) || blk.PointsAtTier(1) != blk.NumPoints {
		t.Fatalf("one-layer block tier views wrong: %+v", blk)
	}
	if blk.Delta(1, 2) != nil {
		t.Fatal("one-layer block delta must be nil")
	}
	one := NewEncoder(Params{QuantBits: 8, Layers: 1})
	if !bytes.Equal(blk.Data, one.EncodeCell(1, c, idxs, bounds).Data) {
		t.Fatal("unset Layers and Layers: 1 encode different bytes")
	}
	if unset.cellKey(1, c, idxs, bounds) != one.cellKey(1, c, idxs, bounds) {
		t.Fatal("unset Layers and Layers: 1 do not share an encode-tier entry")
	}
	if got := unset.Layered(3).Params().Layers; got != 3 {
		t.Fatalf("Layered(3) on an unset encoder gave %d layers", got)
	}
	if got := one.Layered(3).Params().Layers; got != 1 {
		t.Fatalf("Layered(3) overrode an explicit layer count: %d", got)
	}
}

// TestLayeredCacheSharesTiers pins the (content, layer) cache contract:
// with a BlockCache attached, every tier request of the same cell
// content resolves to one encode-tier entry — a base-layer hit never
// re-encodes for an enhancement request.
func TestLayeredCacheSharesTiers(t *testing.T) {
	c, idxs, bounds := layeredTestCellSimple(t, 5000, 16)
	encodes := 0
	cache := countingCache{hits: map[CacheKey]*Block{}, encodes: &encodes}
	enc := NewEncoder(Params{QuantBits: 10, Layers: 4}).Cached(cache)
	first := enc.EncodeCell(5, c, idxs, bounds)
	for i := 0; i < 5; i++ {
		again := enc.EncodeCell(5, c, idxs, bounds)
		if again != first {
			t.Fatal("cache returned a different block")
		}
	}
	if encodes != 1 {
		t.Fatalf("encoded %d times, want 1", encodes)
	}
	// A different layer count is different content.
	NewEncoder(Params{QuantBits: 10, Layers: 2}).Cached(cache).EncodeCell(5, c, idxs, bounds)
	if encodes != 2 {
		t.Fatalf("layer-count change did not re-encode: %d", encodes)
	}
}

type countingCache struct {
	hits    map[CacheKey]*Block
	encodes *int
}

func (c countingCache) Block(key CacheKey, encode func() *Block) *Block {
	if b, ok := c.hits[key]; ok {
		return b
	}
	*c.encodes++
	b := encode()
	c.hits[key] = b
	return b
}

// BenchmarkEncodeLayered times one encode of a body-surface cell, all
// four tiers at once.
func BenchmarkEncodeLayered(b *testing.B) {
	c, idxs, bounds := layeredTestCellSimple(b, 50_000, 17)
	enc := NewEncoder(Params{QuantBits: 10, Layers: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = enc.EncodeCell(1, c, idxs, bounds)
	}
}
