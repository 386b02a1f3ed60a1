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
		if !ofb.Occupied.Equal(gfb.Occupied) {
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
