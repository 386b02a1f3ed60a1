package codec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"volcast/internal/cell"
)

// TestDecodeEveryByteCut cuts a 3-layer block at every length: the cut
// decodes exactly when it is a layer boundary — to that tier's point set,
// colours exact and positions within half a voxel of the tier's depth —
// and is an error everywhere else, never garbage points and never a panic.
func TestDecodeEveryByteCut(t *testing.T) {
	c, idxs, bounds := layeredTestCellSimple(t, 20_000, 13)
	const qb, L = 10, 3
	enc := NewEncoder(Params{QuantBits: qb, Layers: L})
	blk := enc.EncodeCell(4, c, idxs, bounds)
	if blk.PointsAtTier(L-1) == blk.NumPoints {
		t.Fatal("the cell has no duplicates; the final layer's extras go untested")
	}
	var dec Decoder
	for cut := 0; cut <= len(blk.Data); cut++ {
		dc, err := dec.Decode(blk.Data[:cut])
		tier := slices.Index(blk.LayerOffsets, cut) + 1
		if tier == 0 {
			if err == nil {
				t.Fatalf("cut at %d of %d (layers end at %v) decoded %d points", cut, len(blk.Data), blk.LayerOffsets, len(dc.Points))
			}
			continue
		}
		if err != nil {
			t.Fatalf("the %d-layer prefix (%d bytes): %v", tier, cut, err)
		}
		want := enc.TierPoints(c, idxs, bounds, tier)
		if dc.CellID != 4 || len(dc.Points) != len(want) {
			t.Fatalf("the %d-layer prefix: cell %d with %d points, want cell 4 with %d", tier, dc.CellID, len(dc.Points), len(want))
		}
		half := cellEdge(bounds) / float64(uint64(1)<<(qb-L+tier)) / 2 * (1 + 1e-9)
		for i, p := range dc.Points {
			w := want[i]
			d := p.Pos.Sub(w.Pos)
			if p.R != w.R || p.G != w.G || p.B != w.B ||
				math.Abs(d.X) > half || math.Abs(d.Y) > half || math.Abs(d.Z) > half {
				t.Fatalf("the %d-layer prefix: point %d is %+v, the tier's is %+v", tier, i, p, w)
			}
		}
	}
}

// TestDecodeAllocs pins what a warm decode allocates: the DecodedCell and
// its Points, whichever prefix and with or without duplicates to expand.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, idxs, bounds := layeredTestCellSimple(t, 20_000, 13)
	blk := NewEncoder(Params{QuantBits: 10, Layers: 3}).EncodeCell(1, c, idxs, bounds)
	var dec Decoder
	for tier := 1; tier <= blk.Layers(); tier++ {
		data := blk.Prefix(tier)
		if _, err := dec.decode(data); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() { dec.decode(data) }); got > 2 {
			t.Errorf("warm decode of the %d-layer prefix: %.0f allocations, want 2", tier, got)
		}
	}
}

// BenchmarkDecodeLayered times a single-goroutine decode of every cell of
// a 100 K-point frame — the viewer's per-frame cost — at 1, 2 and 4
// layers, for the full block and for its base prefix. It is the in-tree
// rung beside BenchmarkEncodeLayered.
func BenchmarkDecodeLayered(b *testing.B) {
	c, g := testFrameAndGrid(b, 100_000, 1)
	for _, layers := range []int{1, 2, 4} {
		blocks := NewEncoder(Params{QuantBits: 10, Layers: uint8(layers)}).EncodeFrame(g, c)
		ids := make([]cell.ID, 0, len(blocks))
		for id := range blocks {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, prefix := range []int{layers, 1}[:min(layers, 2)] {
			b.Run(fmt.Sprintf("layers%d/prefix%d", layers, prefix), func(b *testing.B) {
				var dec Decoder
				points := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, id := range ids {
						dc, err := dec.decode(blocks[id].Prefix(prefix))
						if err != nil {
							b.Fatal(err)
						}
						points += len(dc.Points)
					}
				}
				b.ReportMetric(float64(points)/b.Elapsed().Seconds()/1e6, "Mpts/s")
			})
		}
	}
}
