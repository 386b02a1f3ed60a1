package vivo

import (
	"bytes"
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
// once as two-layer blocks and inserted into an empty encode tier.
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
		if _, err := BuildStore(video, g, enc, []int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}
