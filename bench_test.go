package volcast

// This file is the benchmark harness mandated by the reproduction: one
// benchmark per table/figure of the paper, each running the same code
// path as the corresponding `volsim` subcommand (at a reduced sample
// count so `go test -bench` stays tractable; use volsim for the
// full-scale numbers recorded in EXPERIMENTS.md).

import (
	"fmt"
	"runtime"
	"testing"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/experiments"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/stream"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// BenchmarkTable1 regenerates Table 1 (multi-user FPS, vanilla vs ViVo,
// 802.11ac vs 802.11ad) at 20% content scale.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Table1Config{
			Frames: 4, Seed: 1, Scale: 0.2, MaxADUsers: 7, MaxACUsers: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFig2a regenerates Fig. 2a (pairwise IoU over time).
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig2a(experiments.Fig2Config{
			Frames: 120, Seed: 1, ScenePoints: 30_000, UsersPerGroup: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 2 {
			b.Fatal("series count")
		}
	}
}

// BenchmarkFig2b regenerates Fig. 2b (IoU CDFs by device/cell/group).
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig2b(experiments.Fig2Config{
			Frames: 120, Seed: 1, ScenePoints: 30_000, UsersPerGroup: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 4 {
			b.Fatal("curve count")
		}
	}
}

// BenchmarkFig3b regenerates Fig. 3b (common-RSS CDF per group size).
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig3b(experiments.Fig3Config{
			Samples: 60, Seed: 1, Frames: 90,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 3 {
			b.Fatal("curve count")
		}
	}
}

// BenchmarkFig3d regenerates Fig. 3d (default vs custom beam RSS CDFs).
func BenchmarkFig3d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3d(experiments.Fig3Config{
			Samples: 40, Seed: 1, Frames: 90,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CustomRSS) == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkFig3e regenerates Fig. 3e (normalized throughput bars).
func BenchmarkFig3e(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3e(experiments.Fig3Config{
			Samples: 40, Seed: 1, Frames: 90,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Samples == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkEncodeParallel measures per-cell frame encoding at pool width
// 1 (the pre-parallel sequential path) versus GOMAXPROCS, on the same
// 100K-point frame as BenchmarkCodecModes.
func BenchmarkEncodeParallel(b *testing.B) {
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: 1, FPS: 30, PointsPerFrame: 100_000, Seed: 1, Sway: 1,
	})
	frame := video.Frames[0]
	bounds, _ := frame.Bounds()
	g, err := cell.NewGrid(bounds, cell.Size50)
	if err != nil {
		b.Fatal(err)
	}
	defer par.SetWorkers(0)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			enc := codec.NewEncoder(codec.DefaultParams())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if blocks := enc.EncodeFrame(g, frame); len(blocks) == 0 {
					b.Fatal("no blocks")
				}
			}
		})
	}
}

// BenchmarkFig3dParallel measures the Fig. 3d beam-design sweep at pool
// width 1 versus GOMAXPROCS (the per-sample custom-beam designs dominate
// and are embarrassingly parallel).
func BenchmarkFig3dParallel(b *testing.B) {
	defer par.SetWorkers(0)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig3d(experiments.Fig3Config{
					Samples: 40, Seed: 1, Frames: 90,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.CustomRSS) == 0 {
					b.Fatal("no samples")
				}
			}
		})
	}
}

// benchWorld caches one content+audience world across session benches.
var benchWorldCache struct {
	stores map[pointcloud.Quality]*vivo.Store
	study  *trace.Study
}

func benchWorld(b *testing.B) (map[pointcloud.Quality]*vivo.Store, *trace.Study) {
	b.Helper()
	if benchWorldCache.stores == nil {
		c, err := NewContent(ContentOptions{Frames: 10, PointsPerFrame: 60_000, Performers: 3})
		if err != nil {
			b.Fatal(err)
		}
		benchWorldCache.stores = map[pointcloud.Quality]*vivo.Store{
			pointcloud.QualityLow: c.Store(),
		}
		benchWorldCache.study = trace.GenerateStudy(120, 1)
	}
	return benchWorldCache.stores, benchWorldCache.study
}

// BenchmarkSessionUnicast measures the end-to-end session engine in
// unicast ViVo mode (the Table 1 configuration as a live session).
func BenchmarkSessionUnicast(b *testing.B) {
	stores, study := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := stream.NewAD()
		if err != nil {
			b.Fatal(err)
		}
		s, err := stream.NewSession(stream.SessionConfig{
			Users: 4, Seconds: 1, Mode: stream.ModeViVo,
			StartQuality: pointcloud.QualityLow,
		}, stores, study, net)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionMulticastCustom measures the full proposed system:
// multicast grouping + custom beams + prediction, on static links and
// with small-scale fading (the sim_multicast workload's settings; fading
// changes which groups form, so the planner's work differs).
func BenchmarkSessionMulticastCustom(b *testing.B) {
	stores, study := benchWorld(b)
	for _, fading := range []bool{false, true} {
		name := "static"
		if fading {
			name = "fading"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := stream.NewAD()
				if err != nil {
					b.Fatal(err)
				}
				s, err := stream.NewSession(stream.SessionConfig{
					Users: 4, Seconds: 1, Mode: stream.ModeMulticast,
					CustomBeams: true, Predictive: true, Fading: fading, Seed: 1,
					StartQuality: pointcloud.QualityLow,
				}, stores, study, net)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation runs the DESIGN.md feature-ablation sweep (vanilla →
// +vivo → +multicast → +custom-beams → +prediction) at reduced load.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(experiments.AblationConfig{
			Users: 5, Seconds: 1, Points: 80_000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkMultiAP runs the §5 multi-AP spatial-reuse sweep.
func BenchmarkMultiAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MultiAP(60_000, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkPredEval runs the viewport-prediction accuracy sweep.
func BenchmarkPredEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PredEval(300, 1, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkCodecModes is the codec ladder: encode cost and bits/pt by
// layer count, at a coarse and a fine lattice.
func BenchmarkCodecModes(b *testing.B) {
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: 1, FPS: 30, PointsPerFrame: 100_000, Seed: 1, Sway: 1,
	})
	frame := video.Frames[0]
	bounds, _ := frame.Bounds()
	g, err := cell.NewGrid(bounds, cell.Size50)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		p    codec.Params
	}{
		{"layers1-qb10", codec.Params{QuantBits: 10, Layers: 1}},
		{"layers4-qb10", codec.Params{QuantBits: 10, Layers: 4}},
		{"layers1-qb6", codec.Params{QuantBits: 6, Layers: 1}},
		{"layers4-qb6", codec.Params{QuantBits: 6, Layers: 4}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			enc := codec.NewEncoder(cfg.p)
			var bytes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := codec.Measure(enc.EncodeFrame(g, frame))
				bytes = s.Bytes
			}
			b.ReportMetric(float64(bytes*8)/float64(frame.Len()), "bits/pt")
		})
	}
}

// BenchmarkDecodeFrameCached measures re-decoding one encoded frame when
// the decode cache already holds every block — the steady-state cost for
// the second and later users of an overlapping viewport.
func BenchmarkDecodeFrameCached(b *testing.B) {
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: 1, FPS: 30, PointsPerFrame: 100_000, Seed: 1, Sway: 1,
	})
	frame := video.Frames[0]
	bounds, _ := frame.Bounds()
	g, err := cell.NewGrid(bounds, cell.Size50)
	if err != nil {
		b.Fatal(err)
	}
	blocks := codec.NewEncoder(codec.DefaultParams()).EncodeFrame(g, frame)
	defer blockcache.SetBudgetMB(-1)
	blockcache.SetBudgetMB(256)
	dec := codec.Decoder{Cache: blockcache.Cells()}
	for _, blk := range blocks {
		if _, err := dec.Decode(blk.Data); err != nil {
			b.Fatal(err) // prime the decode tier
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			if _, err := dec.Decode(blk.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
