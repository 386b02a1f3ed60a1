// Command volsim regenerates the paper's tables and figures from the
// simulation substrate. Each subcommand prints the corresponding result
// in a text form matching what the paper reports.
//
// Usage:
//
//	volsim [-stats] [-workers N] [-cache MB] [-trace out.json] <subcommand> [flags]
//
//	volsim table1 [-frames N] [-scale F]
//	volsim fig2a  [-frames N]
//	volsim fig2b  [-frames N]
//	volsim fig3b  [-samples N]
//	volsim fig3d  [-samples N]
//	volsim fig3e  [-samples N]
//	volsim all
//	volsim session  [-users N] [-seconds S] [-multicast] [-custom] [-predictive] [-decode]
//	volsim predeval [-frames N] [-users N]      viewport-prediction accuracy
//	volsim multiap  [-users N] [-points N]      multi-AP spatial reuse sweep
//	volsim ablate   [-users N] [-seconds S]     feature ablation (QoE per feature)
//	volsim gcr                                  reliable-groupcast cost table
//
// The global -stats flag dumps the process metrics registry (counters,
// then stage-duration and per-layer latency histograms in ms, the text
// form the volserve stats log prints) to stderr after the subcommand
// finishes; -workers N sets the parallel pool width (default GOMAXPROCS,
// also settable via VOLCAST_WORKERS; 1 = fully sequential); -cache MB sets
// the content-addressed block cache budget (default 64, also settable via
// VOLCAST_CACHE_MB; 0 disables caching entirely); -trace out.json enables
// the per-frame pipeline tracer and writes the run as Chrome/Perfetto
// trace_event JSON (open in ui.perfetto.dev or chrome://tracing).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/experiments"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/stream"
	"volcast/internal/trace"
	"volcast/internal/vivo"

	"volcast/internal/cell"
	"volcast/internal/codec"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: volsim [-stats] [-workers N] [-cache MB] [-trace out.json] <table1|fig2a|fig2b|fig3b|fig3d|fig3e|all|session|predeval|multiap|ablate|gcr> [flags]")
	os.Exit(2)
}

// globalFlags strips the pre-subcommand -stats / -workers / -cache /
// -trace flags (the subcommands own their local flag sets) and applies
// them. -trace installs the process tracer, so every layer below starts
// recording spans.
func globalFlags(args []string) (rest []string, stats bool, tracePath string) {
	for len(args) > 0 {
		switch a := args[0]; {
		case a == "-stats" || a == "--stats":
			stats = true
			args = args[1:]
		case a == "-workers" || a == "--workers":
			if len(args) < 2 {
				usage()
			}
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 {
				usage()
			}
			par.SetWorkers(n)
			args = args[2:]
		case a == "-cache" || a == "--cache":
			if len(args) < 2 {
				usage()
			}
			mb, err := strconv.Atoi(args[1])
			if err != nil || mb < 0 {
				usage()
			}
			blockcache.SetBudgetMB(mb)
			args = args[2:]
		case a == "-trace" || a == "--trace":
			if len(args) < 2 || args[1] == "" {
				usage()
			}
			tracePath = args[1]
			obs.SetDefault(obs.New(1 << 18))
			args = args[2:]
		default:
			return args, stats, tracePath
		}
	}
	return args, stats, tracePath
}

// writeTrace dumps the process tracer as Perfetto trace_event JSON and
// prints a one-line summary to stderr.
func writeTrace(path string) error {
	tr := obs.Default()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	misses := 0
	reports := tr.Analyze()
	for _, r := range reports {
		if r.Missed {
			misses++
		}
	}
	fmt.Fprintf(os.Stderr, "volsim: trace %s: %d spans held (%d recorded), %d frame rows, %d deadline misses\n",
		path, tr.Len(), tr.Total(), len(reports), misses)
	return nil
}

func main() {
	args, stats, tracePath := globalFlags(os.Args[1:])
	if len(args) < 1 {
		usage()
	}
	cmd, args := args[0], args[1:]
	var err error
	switch cmd {
	case "table1":
		err = runTable1(args)
	case "fig2a":
		err = runFig2a(args)
	case "fig2b":
		err = runFig2b(args)
	case "fig3b":
		err = runFig3b(args)
	case "fig3d":
		err = runFig3d(args)
	case "fig3e":
		err = runFig3e(args)
	case "all":
		err = runAll()
	case "session":
		err = runSession(args)
	case "predeval":
		err = runPredEval(args)
	case "multiap":
		err = runMultiAP(args)
	case "ablate":
		err = runAblate(args)
	case "gcr":
		err = runGCR()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "volsim:", err)
		os.Exit(1)
	}
	if tracePath != "" {
		if err := writeTrace(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "volsim: trace:", err)
			os.Exit(1)
		}
	}
	if stats {
		fmt.Fprintf(os.Stderr, "== metrics (%d workers) ==\n%s", par.Workers(), metrics.Default().String())
	}
}

func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	frames := fs.Int("frames", 10, "evaluation window in frames")
	scale := fs.Float64("scale", 1.0, "content scale (1.0 = paper's 330K/430K/550K points)")
	seed := fs.Int64("seed", 1, "random seed")
	multicastCol := fs.Bool("multicast", false, "add the proposed system (multicast + custom beams) column")
	fs.Parse(args)
	start := time.Now()
	rows, err := experiments.Table1(experiments.Table1Config{
		Frames: *frames, Seed: *seed, Scale: *scale, MaxADUsers: 7, MaxACUsers: 3,
		WithMulticast: *multicastCol,
	})
	if err != nil {
		return err
	}
	fmt.Println("== Table 1: max achievable FPS, vanilla vs multi-user ViVo ==")
	fmt.Print(experiments.RenderTable1(rows))
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

func runFig2a(args []string) error {
	fs := flag.NewFlagSet("fig2a", flag.ExitOnError)
	frames := fs.Int("frames", 300, "trace length in frames")
	seed := fs.Int64("seed", 1, "random seed")
	csvPath := fs.String("csv", "", "write the series as CSV to this path")
	fs.Parse(args)
	series, err := experiments.Fig2a(experiments.Fig2Config{Frames: *frames, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 2a: viewport similarity (IoU) over time, 50cm cells ==")
	fmt.Print(experiments.RenderFig2a(series))
	if *csvPath != "" {
		var rows [][]string
		header := []string{"frame"}
		for _, sr := range series {
			header = append(header, fmt.Sprintf("iou_%d_%d", sr.UserA, sr.UserB))
		}
		rows = append(rows, header)
		for f := 0; f < len(series[0].IoU); f++ {
			row := []string{fmt.Sprintf("%d", f)}
			for _, sr := range series {
				row = append(row, fmt.Sprintf("%.4f", sr.IoU[f]))
			}
			rows = append(rows, row)
		}
		return writeCSV(*csvPath, rows)
	}
	return nil
}

// writeCSV dumps rows to path.
func writeCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	fmt.Printf("(wrote %s)\n", path)
	return w.Error()
}

func runFig2b(args []string) error {
	fs := flag.NewFlagSet("fig2b", flag.ExitOnError)
	frames := fs.Int("frames", 300, "trace length in frames")
	seed := fs.Int64("seed", 1, "random seed")
	csvPath := fs.String("csv", "", "write the raw samples as CSV to this path")
	fs.Parse(args)
	curves, err := experiments.Fig2b(experiments.Fig2Config{Frames: *frames, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 2b: IoU CDFs by device, cell size, group size ==")
	labels := make([]string, len(curves))
	vals := make([][]float64, len(curves))
	for i, c := range curves {
		labels[i], vals[i] = c.Label, c.IoUs
	}
	fmt.Print(experiments.RenderCDF(labels, vals))
	if *csvPath != "" {
		rows := [][]string{{"curve", "iou"}}
		for _, c := range curves {
			for _, v := range c.IoUs {
				rows = append(rows, []string{c.Label, fmt.Sprintf("%.4f", v)})
			}
		}
		return writeCSV(*csvPath, rows)
	}
	return nil
}

func runFig3b(args []string) error {
	fs := flag.NewFlagSet("fig3b", flag.ExitOnError)
	samples := fs.Int("samples", 400, "position samples per curve")
	seed := fs.Int64("seed", 1, "random seed")
	csvPath := fs.String("csv", "", "write the raw samples as CSV to this path")
	fs.Parse(args)
	curves, err := experiments.Fig3b(experiments.Fig3Config{Samples: *samples, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 3b: common RSS CDF, default codebook, groups of 1/2/3 ==")
	fmt.Print(experiments.RenderFig3b(curves))
	if *csvPath != "" {
		rows := [][]string{{"group_size", "rss_dbm"}}
		for _, c := range curves {
			for _, v := range c.RSS {
				rows = append(rows, []string{fmt.Sprintf("%d", c.GroupSize), fmt.Sprintf("%.2f", v)})
			}
		}
		return writeCSV(*csvPath, rows)
	}
	return nil
}

func runFig3d(args []string) error {
	fs := flag.NewFlagSet("fig3d", flag.ExitOnError)
	samples := fs.Int("samples", 400, "two-user samples")
	seed := fs.Int64("seed", 1, "random seed")
	csvPath := fs.String("csv", "", "write the paired samples as CSV to this path")
	fs.Parse(args)
	res, err := experiments.Fig3d(experiments.Fig3Config{Samples: *samples, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 3d: common RSS, default vs customized multi-lobe beams ==")
	fmt.Print(experiments.RenderFig3d(res))
	if *csvPath != "" {
		rows := [][]string{{"default_rss_dbm", "custom_rss_dbm"}}
		for i := range res.DefaultRSS {
			rows = append(rows, []string{
				fmt.Sprintf("%.2f", res.DefaultRSS[i]),
				fmt.Sprintf("%.2f", res.CustomRSS[i]),
			})
		}
		return writeCSV(*csvPath, rows)
	}
	return nil
}

func runFig3e(args []string) error {
	fs := flag.NewFlagSet("fig3e", flag.ExitOnError)
	samples := fs.Int("samples", 400, "two-user samples")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	res, err := experiments.Fig3e(experiments.Fig3Config{Samples: *samples, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 3e: normalized throughput, unicast vs multicast ==")
	fmt.Print(experiments.RenderFig3e(res))
	return nil
}

func runAll() error {
	if err := runTable1(nil); err != nil {
		return err
	}
	if err := runFig2a(nil); err != nil {
		return err
	}
	if err := runFig2b(nil); err != nil {
		return err
	}
	if err := runFig3b(nil); err != nil {
		return err
	}
	if err := runFig3d(nil); err != nil {
		return err
	}
	return runFig3e(nil)
}

func runSession(args []string) error {
	fs := flag.NewFlagSet("session", flag.ExitOnError)
	users := fs.Int("users", 4, "concurrent viewers")
	seconds := fs.Float64("seconds", 3, "session length")
	points := fs.Int("points", 100_000, "points per frame")
	multicastOn := fs.Bool("multicast", false, "enable multicast grouping")
	custom := fs.Bool("custom", false, "enable custom multi-lobe beams")
	predictive := fs.Bool("predictive", false, "enable prediction + proactive actions")
	decode := fs.Bool("decode", false, "decode every delivered cell (client render path, shared decode cache)")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	gen := obs.Default().Begin(-1, obs.PipelineUser, obs.StageGenerate)
	video := pointcloud.Stage{Frames: 30, Points: *points, Performers: 3, Seed: *seed}.Video()
	gen.End()
	store, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 3, 4})
	if err != nil {
		return err
	}
	study := trace.GenerateStudy(int(*seconds*30)+30, *seed)
	net, err := stream.NewAD()
	if err != nil {
		return err
	}
	mode := stream.ModeViVo
	if *multicastOn {
		mode = stream.ModeMulticast
	}
	sess, err := stream.NewSession(stream.SessionConfig{
		Users: *users, Seconds: *seconds, Mode: mode,
		CustomBeams: *custom, Predictive: *predictive, DecodeClouds: *decode,
		StartQuality: pointcloud.QualityLow,
	}, map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}, study, net)
	if err != nil {
		return err
	}
	q, err := sess.Run()
	if err != nil {
		return err
	}
	fmt.Printf("session: users=%d mode=%v custom=%v predictive=%v\n", *users, mode, *custom, *predictive)
	fmt.Printf("  avg FPS          %.1f\n", q.AvgFPS)
	fmt.Printf("  stalls           %d (%.2fs)\n", q.Stalls, q.StallSeconds)
	fmt.Printf("  multicast share  %.1f%%\n", q.MulticastShare*100)
	fmt.Printf("  beam switches    %d\n", q.BeamSwitches)
	fmt.Printf("  quality switches %d\n", q.QualitySwitches)
	if *decode {
		reg := metrics.Default()
		hits := reg.Counter("blockcache.decode.hits").Value()
		misses := reg.Counter("blockcache.decode.misses").Value()
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses) * 100
		}
		fmt.Printf("  decode cache     %d hits / %d misses (%.1f%% hit rate)\n", hits, misses, rate)
	}
	return nil
}

func runPredEval(args []string) error {
	fs := flag.NewFlagSet("predeval", flag.ExitOnError)
	frames := fs.Int("frames", 600, "trace length in frames")
	users := fs.Int("users", 8, "users to average over")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	rows, err := experiments.PredEval(*frames, *seed, *users)
	if err != nil {
		return err
	}
	fmt.Println("== Viewport prediction accuracy (mean over users) ==")
	fmt.Print(experiments.RenderPredEval(rows))
	return nil
}

func runMultiAP(args []string) error {
	fs := flag.NewFlagSet("multiap", flag.ExitOnError)
	users := fs.Int("users", 8, "audience size")
	points := fs.Int("points", 200_000, "points per frame")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	rows, err := experiments.MultiAP(*points, *users, *seed)
	if err != nil {
		return err
	}
	fmt.Println("== Multi-AP coordination: uncapped frame rate vs AP count ==")
	fmt.Print(experiments.RenderMultiAP(rows))
	return nil
}

func runAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	users := fs.Int("users", 7, "concurrent viewers")
	seconds := fs.Float64("seconds", 3, "session length")
	points := fs.Int("points", 300_000, "points per frame")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	start := time.Now()
	rows, err := experiments.Ablation(experiments.AblationConfig{
		Users: *users, Seconds: *seconds, Points: *points, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("== Feature ablation: QoE as the cross-layer stack builds up ==")
	fmt.Print(experiments.RenderAblation(rows))
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

func runGCR() error {
	fmt.Println("== Reliable groupcast (802.11aa GCR): airtime vs residual loss ==")
	fmt.Print(experiments.RenderGCR(experiments.GCRSweep()))
	return nil
}
