package vivo

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/pointcloud"
)

func buildTestStore(t testing.TB, frames, points int) *Store {
	t.Helper()
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: frames, FPS: 30, PointsPerFrame: points, Seed: 3, Sway: 1,
	})
	b, _ := video.Bounds()
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStore(video, g, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestContainerRoundTrip(t *testing.T) {
	orig := buildTestStore(t, 3, 10_000)
	var buf bytes.Buffer
	if err := WriteStore(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// One block per cell, not one per rung: the container is the stride-1
	// payload plus a few varints per block.
	payload := 0
	for f := 0; f < orig.NumFrames(); f++ {
		payload += orig.FrameBytes(f)
	}
	if float64(buf.Len()) > 1.05*float64(payload) {
		t.Errorf("container is %d B for %d B of stride-1 payload (> 1.05x)", buf.Len(), payload)
	}
	got, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFrames() != orig.NumFrames() || got.FPS() != orig.FPS() {
		t.Fatalf("meta mismatch: %d/%d frames, %d/%d fps",
			got.NumFrames(), orig.NumFrames(), got.FPS(), orig.FPS())
	}
	if got.Grid().Size() != orig.Grid().Size() || got.Grid().NumCells() != orig.Grid().NumCells() {
		t.Fatal("grid mismatch")
	}
	gs, os := got.Strides(), orig.Strides()
	if len(gs) != len(os) {
		t.Fatalf("strides %v vs %v", gs, os)
	}
	for f := 0; f < orig.NumFrames(); f++ {
		ofb, gfb := orig.Frame(f), got.Frame(f)
		if !slices.Equal(ofb.Occupied.IDs(), gfb.Occupied.IDs()) {
			t.Fatalf("frame %d occupancy mismatch", f)
		}
		for _, stride := range os {
			om, gm := ofb.ByStride[stride], gfb.ByStride[stride]
			if len(om) != len(gm) {
				t.Fatalf("frame %d stride %d: %d vs %d blocks", f, stride, len(gm), len(om))
			}
			for id, ob := range om {
				gb, ok := gm[id]
				if !ok {
					t.Fatalf("frame %d stride %d: missing cell %d", f, stride, id)
				}
				if !bytes.Equal(gb.Data, ob.Data) || gb.NumPoints != ob.NumPoints {
					t.Fatalf("frame %d stride %d cell %d payload mismatch", f, stride, id)
				}
				// The reloaded block is the same layered block, not a flat
				// copy of its bytes: same tiers, same prefixes, same deltas.
				if gb.Layers() != ob.Layers() || !slices.Equal(gb.LayerPoints, ob.LayerPoints) ||
					!slices.Equal(gb.LayerOffsets, ob.LayerOffsets) {
					t.Fatalf("frame %d stride %d cell %d: layers %d %v %v, built %d %v %v", f, stride, id,
						gb.Layers(), gb.LayerPoints, gb.LayerOffsets, ob.Layers(), ob.LayerPoints, ob.LayerOffsets)
				}
				for tr := 1; tr <= ob.Layers(); tr++ {
					if !bytes.Equal(gb.Prefix(tr), ob.Prefix(tr)) {
						t.Fatalf("frame %d stride %d cell %d: Prefix(%d) differs", f, stride, id, tr)
					}
				}
				for _, from := range os {
					if g, o := got.UpgradeBytes(f, id, from, stride), orig.UpgradeBytes(f, id, from, stride); g != o {
						t.Fatalf("frame %d cell %d: UpgradeBytes(%d→%d) = %d, built store %d", f, id, from, stride, g, o)
					}
				}
			}
		}
		// A full upgrade is never free.
		for id := range ofb.ByStride[1] {
			if got.UpgradeBytes(f, id, os[len(os)-1], 1) <= 0 {
				t.Fatalf("frame %d cell %d: upgrade from the coarsest rung priced at 0 bytes", f, id)
			}
		}
	}
	// The reloaded store decodes cleanly.
	var dec codec.Decoder
	if _, err := dec.DecodeFrame(got.Frame(0).ByStride[1]); err != nil {
		t.Fatalf("reloaded store undecodable: %v", err)
	}
}

func TestContainerRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOTAST",
		"VCSTOR",         // truncated after magic
		"VCSTOR\x09",     // wrong version
		"VCSTOR\x01\x1e", // truncated header
	}
	for i, c := range cases {
		if _, err := ReadStore(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// A version-1 file (one offset-less block per rung) names the fix.
	_, err := ReadStore(strings.NewReader("VCSTOR\x01\x1e\x02"))
	if !errors.Is(err, ErrBadContainer) || !strings.Contains(err.Error(), "volpack") {
		t.Errorf("version-1 container: %v, want ErrBadContainer naming volpack", err)
	}
}

func TestContainerRejectsCorruptLengths(t *testing.T) {
	orig := buildTestStore(t, 1, 2_000)
	var buf bytes.Buffer
	if err := WriteStore(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncate mid-payload: must error, not hang or panic.
	if _, err := ReadStore(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated container accepted")
	}
}

func BenchmarkWriteStore(b *testing.B) {
	st := buildTestStore(b, 2, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteStore(&buf, st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadStore(b *testing.B) {
	st := buildTestStore(b, 2, 20_000)
	var buf bytes.Buffer
	if err := WriteStore(&buf, st); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadStore(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildStoreCold is the "generate → encode → cache" stage of a
// never-seen scene: ten 50 K-point frames partitioned, hashed, encoded
// once as two-layer blocks and inserted into an empty encode tier, timed
// to the last frame (Wait), not to BuildStore's return at frame 0.
func BenchmarkBuildStoreCold(b *testing.B) {
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: 10, FPS: 30, PointsPerFrame: 50_000, Seed: 3, Sway: 1,
	})
	bounds, _ := video.Bounds()
	g, err := cell.NewGrid(bounds, cell.Size50)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := blockcache.New("bench", 256<<20, metrics.NewRegistry())
		enc := codec.NewEncoder(codec.DefaultParams()).Cached(blockcache.BlockCacheOn(cache))
		st, err := BuildStore(video, g, enc, []int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		st.Wait()
	}
}

// BenchmarkBuildStoreWarm measures rebuilding the content store when the
// process-wide encode cache already holds every cell (a re-encode of an
// unchanged video): each cell costs one content hash instead of a full
// quantize+sort+code pass. "whole" times the build to its last frame
// (Wait); "first-frame" times only BuildStore's return, which is frame 0.
func BenchmarkBuildStoreWarm(b *testing.B) {
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: 4, FPS: 30, PointsPerFrame: 60_000, Seed: 1, Sway: 1,
	})
	bounds, _ := video.Bounds()
	g, err := cell.NewGrid(bounds, cell.Size50)
	if err != nil {
		b.Fatal(err)
	}
	defer blockcache.SetBudgetMB(-1)
	blockcache.SetBudgetMB(256)
	enc := codec.NewEncoder(codec.DefaultParams())
	st, err := BuildStore(video, g, enc, []int{1, 2})
	if err != nil {
		b.Fatal(err) // prime the encode tier
	}
	st.Wait()
	for _, whole := range []bool{true, false} {
		name := "whole"
		if !whole {
			name = "first-frame"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := BuildStore(video, g, enc, []int{1, 2})
				if err != nil {
					b.Fatal(err)
				}
				if whole {
					st.Wait()
				} else {
					// Off the clock: the next build starts from an idle pool.
					b.StopTimer()
					st.Wait()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkColdFactory is a store factory's path to frame 0 on cold_join's
// content (ten 50 K-point frames, strides {1, 2}), as the benchmark rig
// and volserve run it: synth (SynthVideo), bounds (Video.Bounds), frame0
// (NewGrid, then BuildStore up to its return, into an empty encode tier)
// and factory, the three in sequence. Each iteration synthesizes a new
// seed; the build's later frames are waited out, and a fresh encode tier
// made, with the timer stopped.
func BenchmarkColdFactory(b *testing.B) {
	strides := []int{1, 2}
	content := func(seed int) *pointcloud.Video {
		return pointcloud.SynthVideo(pointcloud.SynthConfig{Frames: 10, FPS: 30, PointsPerFrame: 50_000, Seed: int64(seed), Sway: 1})
	}
	// frame0 builds v's store up to frame 0 with the timer running and
	// waits out the rest of the build with it stopped.
	frame0 := func(b *testing.B, v *pointcloud.Video, bounds geom.AABB) {
		b.StopTimer()
		enc := codec.NewEncoder(codec.DefaultParams()).Cached(blockcache.BlockCacheOn(blockcache.New("bench", 256<<20, metrics.NewRegistry())))
		b.StartTimer()
		g, err := cell.NewGrid(bounds, cell.Size50)
		if err != nil {
			b.Fatal(err)
		}
		st, err := BuildStore(v, g, enc, strides)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Wait()
		b.StartTimer()
	}
	bounds := func(b *testing.B, v *pointcloud.Video) geom.AABB {
		box, ok := v.Bounds()
		if !ok {
			b.Fatal("no bounds")
		}
		return box
	}
	b.Run("synth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			content(i)
		}
	})
	b.Run("bounds", func(b *testing.B) {
		v := content(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bounds(b, v)
		}
	})
	b.Run("frame0", func(b *testing.B) {
		v := content(1)
		box := bounds(b, v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame0(b, v, box)
		}
	})
	b.Run("factory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := content(i)
			frame0(b, v, bounds(b, v))
		}
	})
}
