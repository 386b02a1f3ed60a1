// Command volserve runs the volcast TCP content server: a multi-tenant
// session hub that hosts up to -scenes concurrent scenes, synthesizes (or
// loads) each scene's volumetric video on its first join, encodes it
// through the hub-wide shared cache tier, and streams viewport-adapted
// cell bursts to every connected volplay client of that scene.
//
// Usage:
//
//	volserve [-addr :7272] [-frames 90] [-points 100000] [-performers 3] [-vanilla]
//	volserve -scenes 64 -scene-seed-stride 0  # many scenes, identical content
//	volserve -load content.vcstor             # serve pre-encoded content (volpack)
//	volserve -debug-addr :7273                # live /metrics, /trace, /qoe, pprof
//	volserve -chaos-seed 42 -chaos-reset 0.5  # deterministic fault injection
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"net"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/faultnet"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/vivo"
)

func main() {
	addr := flag.String("addr", ":7272", "listen address")
	frames := flag.Int("frames", 90, "video frames per scene (looped)")
	points := flag.Int("points", 100_000, "points per frame")
	performers := flag.Int("performers", 3, "humanoids on stage")
	vanilla := flag.Bool("vanilla", false, "disable visibility optimizations")
	seed := flag.Int64("seed", 1, "content seed for scene 0")
	scenes := flag.Int("scenes", 16, "max concurrent scenes (sessions); each is built on first join and reaped when idle")
	seedStride := flag.Int64("scene-seed-stride", 1, "scene k synthesizes with seed+k*stride; 0 makes every scene identical content, maximizing shared encode-tier hits")
	reapAfter := flag.Duration("reap-after", 10*time.Second, "grace before an empty scene is reaped (negative = never)")
	load := flag.String("load", "", "serve a pre-encoded .vcstor container instead of synthesizing (every scene shares it)")
	workers := flag.Int("workers", 0, "parallel pool width (0 = VOLCAST_WORKERS or GOMAXPROCS, 1 = sequential)")
	cacheMB := flag.Int("cache", -1, "hub-wide block cache budget in MB, shared by ALL scenes — one budget for the whole process, not per-session (-1 = VOLCAST_CACHE_MB or 64, 0 = disabled)")
	statsEvery := flag.Duration("stats", 30*time.Second, "metrics log interval (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace, /qoe and pprof on this address (enables the pipeline tracer)")
	heartbeat := flag.Duration("hb", time.Second, "heartbeat Ping interval (negative disables)")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop clients with no readable traffic for this long (0 = 4×hb)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Second, "graceful drain budget on shutdown")
	chaosSeed := flag.Int64("chaos-seed", 0, "enable deterministic fault injection with this seed (0 = off); same seed ⇒ same per-connection fault schedule")
	chaosReset := flag.Float64("chaos-reset", 0.5, "chaos: per-connection probability of a mid-stream reset")
	chaosResetKB := flag.Int64("chaos-reset-kb", 512, "chaos: mean KB of traffic before a scheduled reset fires")
	chaosStallEvery := flag.Int("chaos-stall-every", 0, "chaos: stall every Nth read (0 = never)")
	chaosStallDur := flag.Duration("chaos-stall", 30*time.Millisecond, "chaos: injected read-stall duration")
	chaosBwMbps := flag.Float64("chaos-bw", 0, "chaos: per-connection bandwidth cap in Mbps (0 = uncapped)")
	chaosLatency := flag.Duration("chaos-latency", 0, "chaos: added latency per socket op")
	chaosAcceptFail := flag.Int("chaos-accept-fail", 0, "chaos: fail every Nth accept once (0 = never)")
	sloP99 := flag.Float64("slo-p99", 33, "SLO: windowed p99 frame latency ceiling in ms (0 = unchecked)")
	sloMissRate := flag.Float64("slo-missrate", 0.05, "SLO: windowed deadline-miss rate ceiling (0 = unchecked)")
	sloMinSamples := flag.Int64("slo-min-samples", 30, "SLO: minimum windowed frames+misses before a scene is evaluated")
	sloEvery := flag.Duration("slo-every", time.Second, "SLO: evaluation interval (negative disables the evaluator)")
	sloRecoverAfter := flag.Int("slo-recover-after", 3, "SLO: consecutive healthy evaluations before a breached scene recovers")
	flightDir := flag.String("flight-dir", "flightdumps", "directory for breach-triggered flight dumps (empty disables the recorder)")
	flightMax := flag.Int("flight-max", 8, "max flight dumps retained on disk (oldest pruned)")
	flightInterval := flag.Duration("flight-interval", 10*time.Second, "min interval between flight captures (extra breaches are suppressed)")
	flag.Parse()
	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	// One call, one budget: the shared cache tier spans every scene the
	// hub hosts, so -cache bounds total cache memory for the process no
	// matter how many sessions come and go.
	blockcache.SetBudgetMB(*cacheMB)
	if *debugAddr != "" {
		// The tracer rides along with the debug endpoint: installing it
		// process-wide makes every layer (store build, push loop, writers)
		// record spans that /trace and /qoe then serve live.
		obs.SetDefault(obs.New(1 << 17))
	}

	// newStore builds one scene's content on its first join. The blocks
	// argument is the scene's labeled view of the hub-wide shared encode
	// tier: overlapping content across scenes (same seed ⇒ identical
	// blocks) encodes once, and /metrics splits the hits per scene.
	var shared *vivo.Store
	if *load != "" {
		var err error
		if shared, err = vivo.LoadStore(*load); err != nil {
			log.Fatal(err)
		}
		log.Printf("volserve: loaded %s (%d frames, %.0f KB/frame, %.0f Mbps at 30 FPS) — all scenes share it",
			*load, shared.NumFrames(), shared.AvgFrameBytes()/1e3,
			codec.BitrateMbps(shared.AvgFrameBytes(), 30))
	}
	newStore := func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
		if shared != nil {
			return shared, nil
		}
		sceneSeed := *seed + int64(scene)**seedStride
		log.Printf("volserve: scene %d: generating %d frames × %d points (seed %d)…",
			scene, *frames, *points, sceneSeed)
		gen := obs.Default().Begin(-1, obs.PipelineUser, obs.StageGenerate)
		video := pointcloud.Stage{Frames: *frames, Points: *points, Performers: *performers, Seed: sceneSeed}.Video()
		gen.End()
		store, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()).Cached(blocks), []int{1, 2, 3, 4})
		if err != nil {
			return nil, fmt.Errorf("scene %d: %w", scene, err)
		}
		// The build returned at frame 0 and finishes behind the session:
		// log what frame 0 and the ladder already say, not an average that
		// would wait for the last frame.
		log.Printf("volserve: scene %d: %d frames, strides %v, frame 0 %.0f KB (%.0f Mbps at 30 FPS); the rest builds in playout order",
			scene, store.NumFrames(), store.Strides(), float64(store.FrameBytes(0))/1e3,
			codec.BitrateMbps(float64(store.FrameBytes(0)), 30))
		return store, nil
	}

	// The SLO plane: every session's windowed QoE is evaluated against one
	// declarative target set; transitions land on the event log, and fresh
	// breaches snapshot the tracer ring to a flight dump on disk.
	events := obs.NewEventLog(1024)
	var flight *obs.FlightRecorder
	if *flightDir != "" {
		flight = obs.NewFlightRecorder(*flightDir, obs.Default(), *flightMax, *flightInterval)
	}
	engine := obs.NewSLOEngine(obs.SLOTargets{
		P99MaxMS:     *sloP99,
		MissRateMax:  *sloMissRate,
		MinSamples:   *sloMinSamples,
		RecoverAfter: *sloRecoverAfter,
	}, events, flight)

	h, err := hub.New(hub.Config{
		NewStore:       newStore,
		Vanilla:        *vanilla,
		HeartbeatEvery: *heartbeat,
		IdleTimeout:    *idleTimeout,
		DrainTimeout:   *drainTimeout,
		ReapAfter:      *reapAfter,
		MaxSessions:    *scenes,
		Events:         events,
		SLO:            engine,
		SLOEvery:       *sloEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	serveLn := net.Listener(ln)
	if *chaosSeed != 0 {
		// Every accepted connection draws its fault schedule from the
		// seed: reproduce a failing run by re-serving with the same seed
		// and the same client arrival order.
		kb := *chaosResetKB
		if kb < 2 {
			kb = 2
		}
		serveLn = faultnet.NewListener(ln, faultnet.Config{
			Seed:            *chaosSeed,
			Latency:         *chaosLatency,
			BandwidthBps:    int64(*chaosBwMbps * 1e6 / 8),
			ResetProb:       *chaosReset,
			ResetAfterBytes: [2]int64{kb << 9, kb << 10 * 3 / 2}, // [mean/2, mean*1.5)
			StallEvery:      *chaosStallEvery,
			StallDur:        *chaosStallDur,
			AcceptFailEvery: *chaosAcceptFail,
		})
		log.Printf("volserve: CHAOS enabled (seed %d): reset p=%.2f @~%dKB, stall 1/%d×%v, bw %.1f Mbps, accept-fail 1/%d",
			*chaosSeed, *chaosReset, kb, *chaosStallEvery, *chaosStallDur, *chaosBwMbps, *chaosAcceptFail)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- h.Serve(serveLn) }()
	log.Printf("volserve: listening on %s (up to %d scenes, %d workers); scenes build on first join",
		ln.Addr(), *scenes, par.Workers())

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr: *debugAddr,
			// UserLabel turns bare tracer user ids into scene<N>/<client>
			// rows so /qoe stays readable with many sessions.
			Handler: obs.NewDebugMux(obs.DebugConfig{
				UserLabel: h.SubscriberLabel,
				Sessions:  h.SessionInfos,
				SLO:       engine,
				Events:    events,
			}),
		}
		go func() {
			log.Printf("volserve: debug endpoint on %s (/metrics /metrics/prom /sessions /slo /events /trace /qoe /debug/pprof/)", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("volserve: debug endpoint: %v", err)
			}
		}()
	}

	// Stats logger: a stoppable ticker (a bare time.Tick would leak past
	// shutdown) reporting per-interval deltas — rates, not lifetime totals.
	stopStats := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		if *statsEvery <= 0 {
			return
		}
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		prev := metrics.Default().Snapshot()
		for {
			select {
			case <-stopStats:
				return
			case <-ticker.C:
			}
			cur := metrics.Default().Snapshot()
			if s := cur.Delta(prev).String(); s != "" {
				log.Printf("volserve: metrics (last %v; %d scenes, %d clients)\n%s",
					*statsEvery, h.NumSessions(), h.NumClients(), s)
			}
			prev = cur
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Println()
		log.Printf("volserve: %v — shutting down %d scenes", s, h.NumSessions())
		close(stopStats)
		<-statsDone
		if debugSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			debugSrv.Shutdown(ctx)
			cancel()
		}
		h.Shutdown()
	case err := <-errCh:
		if err != nil {
			log.Fatal(err)
		}
	}
}
