package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/vivo"
)

// renderLayerParity builds a small multi-rung layered store and renders a
// per-frame, per-rung digest of the served bytes. Along the way it pins
// the layer-prefix contract end to end: the bytes the store serves for a
// rung must be exactly the prefix of the one layered encode, and decoding
// that prefix must be identical to decoding an independent single-layer
// encode of the tier's point set at the tier's depth. The rendered text
// is compared across worker counts and cache modes by the parity tests.
func renderLayerParity(t *testing.T) string {
	t.Helper()
	const qb, frames = uint8(10), 2
	strides := []int{1, 2, 4}
	video := pointcloud.Stage{Frames: frames, Points: 12_000, Seed: 5}.Video()
	st, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.Params{QuantBits: qb}), strides)
	if err != nil {
		t.Fatal(err)
	}
	g := st.Grid()

	// The same layering BuildStore applied, for the independent per-tier
	// reference encodes (uncached on purpose: the reference path must not
	// share state with the store under test).
	lenc := codec.NewEncoder(codec.Params{QuantBits: qb, Layers: uint8(len(strides))})
	var dec codec.Decoder
	lad := st.Ladder()
	var sb strings.Builder
	for fi := 0; fi < st.NumFrames(); fi++ {
		parts := g.Partition(video.Frames[fi])
		ids := make([]cell.ID, 0, len(parts))
		for id := range parts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for r, stride := range strides {
			h := fnv.New64a()
			cells, points, total := 0, 0, 0
			for _, id := range ids {
				full := st.LayeredBlock(fi, id)
				served := st.Block(fi, id, stride)
				if full == nil || served == nil {
					continue
				}
				want := lad.LayersFor(r, full.Layers())
				if !bytes.Equal(served.Data, full.Prefix(want)) {
					t.Fatalf("frame %d cell %d stride %d: served bytes are not the %d-layer prefix", fi, id, stride, want)
				}
				got, err := dec.Decode(served.Data)
				if err != nil {
					t.Fatalf("frame %d cell %d stride %d: %v", fi, id, stride, err)
				}
				idxs := parts[id]
				tierPts := lenc.TierPoints(video.Frames[fi], idxs, g.Bounds(id), want)
				tc := &pointcloud.Cloud{Points: tierPts}
				ref := codec.NewEncoder(codec.Params{QuantBits: qb - uint8(len(strides)) + uint8(want), Layers: 1})
				refIdxs := make([]int, len(tierPts))
				for i := range refIdxs {
					refIdxs[i] = i
				}
				iblk := ref.EncodeCell(id, tc, refIdxs, g.Bounds(id))
				ind, err := dec.Decode(iblk.Data)
				if err != nil {
					t.Fatalf("frame %d cell %d stride %d independent: %v", fi, id, stride, err)
				}
				if !reflect.DeepEqual(got, ind) {
					t.Fatalf("frame %d cell %d stride %d: prefix decode diverges from independent tier encode (%d vs %d points)",
						fi, id, stride, len(got.Points), len(ind.Points))
				}
				h.Write(served.Data)
				cells++
				points += len(got.Points)
				total += len(served.Data)
			}
			fmt.Fprintf(&sb, "frame=%d stride=%d cells=%d points=%d bytes=%d fnv=%016x\n",
				fi, stride, cells, points, total, h.Sum64())
		}
	}
	return sb.String()
}

// TestWorkerCountParity is the tentpole equivalence guarantee: every
// experiment must render byte-identically whether the par pool runs
// fully sequential (workers=1, the pre-parallel code path) or wide
// (workers=8). Each generator runs at reduced scale; the rendered text
// is compared verbatim.
func TestWorkerCountParity(t *testing.T) {
	defer par.SetWorkers(0)

	render := func(t *testing.T) map[string]string {
		t.Helper()
		out := map[string]string{}

		rows, err := Table1(Table1Config{
			Frames: 2, Seed: 1, Scale: 0.05, MaxADUsers: 2, MaxACUsers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		out["table1"] = RenderTable1(rows)

		curves, err := Fig2b(Fig2Config{
			Frames: 30, Seed: 1, ScenePoints: 8_000, UsersPerGroup: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]string, len(curves))
		vals := make([][]float64, len(curves))
		for i, c := range curves {
			labels[i], vals[i] = c.Label, c.IoUs
		}
		out["fig2b"] = RenderCDF(labels, vals)

		f3d, err := Fig3d(Fig3Config{Samples: 12, Seed: 1, Frames: 30})
		if err != nil {
			t.Fatal(err)
		}
		out["fig3d"] = RenderFig3d(f3d)

		out["layers"] = renderLayerParity(t)

		return out
	}

	par.SetWorkers(1)
	seq := render(t)
	par.SetWorkers(8)
	wide := render(t)

	for name, want := range seq {
		if got := wide[name]; got != want {
			t.Errorf("%s: workers=8 output differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", name, want, got)
		}
	}
}

// TestCacheParity is the block-cache equivalence guarantee: experiments
// must render byte-identically with the content-addressed cache disabled,
// enabled, and enabled while the par pool runs wide (cache + concurrency
// together). A cache hit must be indistinguishable from a re-encode.
func TestCacheParity(t *testing.T) {
	defer blockcache.SetBudgetMB(-1)
	defer par.SetWorkers(0)

	render := func(t *testing.T) map[string]string {
		t.Helper()
		out := map[string]string{}

		rows, err := Table1(Table1Config{
			Frames: 2, Seed: 1, Scale: 0.05, MaxADUsers: 2, MaxACUsers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		out["table1"] = RenderTable1(rows)

		curves, err := Fig2b(Fig2Config{
			Frames: 30, Seed: 1, ScenePoints: 8_000, UsersPerGroup: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]string, len(curves))
		vals := make([][]float64, len(curves))
		for i, c := range curves {
			labels[i], vals[i] = c.Label, c.IoUs
		}
		out["fig2b"] = RenderCDF(labels, vals)

		out["layers"] = renderLayerParity(t)

		return out
	}

	par.SetWorkers(1)
	blockcache.SetBudgetMB(0)
	off := render(t)
	blockcache.SetBudgetMB(64)
	on := render(t)
	par.SetWorkers(8)
	onWide := render(t)

	for name, want := range off {
		if got := on[name]; got != want {
			t.Errorf("%s: cache=64MB output differs from cache=off:\n--- off ---\n%s\n--- on ---\n%s", name, want, got)
		}
		if got := onWide[name]; got != want {
			t.Errorf("%s: cache=64MB workers=8 output differs from cache=off:\n--- off ---\n%s\n--- on+wide ---\n%s", name, want, got)
		}
	}
}
