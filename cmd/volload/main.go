// Command volload is the trace-driven load generator for the session
// hub: it drives hundreds to thousands of synthetic volcast clients —
// spread across N scenes, with optional join/leave churn and seeded
// faultnet faults — against one server process, and emits a JSON report
// (sessions, clients, frames, p50/p95/p99 frame latency, cache hit rate,
// drops) so the multi-user scale claim lands in a number.
//
// By default it self-hosts a hub over TCP loopback in the same process,
// which is what makes the cross-session encode-cache hit rate observable
// in the report (the cache counters live in the process registry). Point
// it at an external volserve with -addr; cache stats are then reported
// as unavailable.
//
// Usage:
//
//	volload -sessions 4 -clients 64 -duration 10s        # self-hosted smoke
//	volload -clients 500 -sessions 8 -churn-every 2s     # churn at scale
//	volload -fault-reset 0.3 -load-seed 7                # seeded chaos
//	volload -addr host:7272                              # external server
//	volload -out report.json                             # report to a file
//	volload -cap-scene 1 -cap-mbps 0.25 -flight-dir /tmp/fl \
//	        -debug-addr 127.0.0.1:0 -min-breaches 1      # SLO-plane smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/faultnet"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/pointcloud"
	"volcast/internal/trace"
	"volcast/internal/transport"
	"volcast/internal/vivo"
)

// report is the JSON document volload emits.
type report struct {
	Sessions   int     `json:"sessions"`
	Clients    int     `json:"clients"`
	Joins      int64   `json:"joins"`
	Reconnects int64   `json:"reconnects"`
	DurationS  float64 `json:"duration_s"`
	LoadSeed   int64   `json:"load_seed"`
	ChurnEvery string  `json:"churn_every,omitempty"`

	Frames        int64 `json:"frames"`
	Cells         int64 `json:"cells"`
	Bytes         int64 `json:"bytes"`
	FramesDropped int64 `json:"frames_dropped"`
	DecodeErrors  int64 `json:"decode_errors"`
	ClientErrors  int64 `json:"client_errors"`

	Latency latencyStats `json:"frame_latency_ms"`

	DropsEnqueue    int64 `json:"drops_enqueue"`
	DropsSlowClient int64 `json:"drops_slowclient"`

	// Cache is nil when the server runs out-of-process (-addr): its
	// registry is not reachable from here.
	Cache *cacheStats `json:"cache,omitempty"`

	// Layers is the layered-serving readout (deltas received, bytes a
	// full re-send would have cost); nil unless -layers or -probe-upgrade
	// put the layered path on the wire.
	Layers *layerStats `json:"layers,omitempty"`

	// SLO is the per-session SLO readout: breach counts from the engine
	// (self-host) or from -debug-addr /sessions scrapes (external), plus
	// the scrape-observed windowed-quantile liveness. Nil when neither
	// source is available.
	SLO *sloReport `json:"slo,omitempty"`

	GoroutinesStart int  `json:"goroutines_start"`
	GoroutinesEnd   int  `json:"goroutines_end"`
	Hung            bool `json:"hung"`
}

type latencyStats struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
}

type cacheStats struct {
	EncodeHits   int64   `json:"encode_hits"`
	EncodeMisses int64   `json:"encode_misses"`
	HitRate      float64 `json:"hit_rate"`
	// PerSession maps scene label → hits/misses against the shared
	// encode tier, the cross-session sharing evidence.
	PerSession map[string]hitMiss `json:"per_session,omitempty"`
}

type hitMiss struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// layerStats aggregates the enhancement-delta accounting across the push
// fleet and the -probe-upgrade pull probes: DeltaBytes went on the wire,
// DeltaFullBytes is what re-sending those cells whole would have cost.
type layerStats struct {
	Probes         int     `json:"probes,omitempty"`
	ProbeFrames    int64   `json:"probe_frames,omitempty"`
	ProbeDropped   int64   `json:"probe_dropped,omitempty"`
	ProbeCells     int64   `json:"probe_cells,omitempty"`
	DeltaCells     int64   `json:"delta_cells"`
	DeltaBytes     int64   `json:"delta_bytes"`
	DeltaFullBytes int64   `json:"delta_full_bytes"`
	SavingsFrac    float64 `json:"savings_frac"`
}

// sloReport lands in the JSON report under "slo": the per-session breach
// counts plus what the /sessions scrapes observed during the run.
type sloReport struct {
	Targets       *obs.SLOTargets       `json:"targets,omitempty"`
	Scrapes       int                   `json:"scrapes"`
	QuantilesLive bool                  `json:"quantiles_live"`
	BreachesTotal int64                 `json:"breaches_total"`
	PerSession    map[string]sessionSLO `json:"per_session,omitempty"`
	FlightDumps   int                   `json:"flight_dumps"`
	FlightDir     string                `json:"flight_dir,omitempty"`
}

type sessionSLO struct {
	Breached     bool    `json:"breached"`
	Breaches     int64   `json:"breaches"`
	WindowFrames int64   `json:"window_frames"`
	WindowMisses int64   `json:"window_misses"`
	P99MS        float64 `json:"p99_ms"`
}

// scraper polls a debug endpoint's /sessions table during the run and
// tracks whether the windowed quantiles are actually live (changing
// between scrapes while traffic flows).
type scraper struct {
	mu            sync.Mutex
	scrapes       int
	quantilesLive bool
	prev          map[string]obs.SessionInfo
	last          []obs.SessionInfo
}

func (sc *scraper) poll(base string) {
	resp, err := http.Get(base + "/sessions?format=json")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var rows []obs.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.scrapes++
	sc.last = rows
	cur := make(map[string]obs.SessionInfo, len(rows))
	for _, row := range rows {
		cur[row.Scene] = row
		p, ok := sc.prev[row.Scene]
		if !ok || p.WindowFrames == 0 || row.WindowFrames == 0 {
			continue
		}
		if p.P50MS != row.P50MS || p.P95MS != row.P95MS || p.P99MS != row.P99MS {
			sc.quantilesLive = true
		}
	}
	sc.prev = cur
}

func main() {
	addr := flag.String("addr", "", "external server address (empty = self-host a hub over loopback; required for cache stats)")
	sessions := flag.Int("sessions", 4, "scenes to spread clients across")
	clients := flag.Int("clients", 64, "concurrent clients")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	churnEvery := flag.Duration("churn-every", 0, "make each client leave and rejoin about this often (0 = stay connected; jittered ±50% per client)")
	loadSeed := flag.Int64("load-seed", 1, "seed for traces, churn jitter and fault schedules — same seed ⇒ same run shape")
	decode := flag.Bool("decode", false, "fully decode received cells (CPU-heavy at scale)")
	frames := flag.Int("frames", 30, "self-host: video frames per scene (looped)")
	points := flag.Int("points", 4000, "self-host: points per frame")
	performers := flag.Int("performers", 1, "self-host: humanoids on stage")
	seed := flag.Int64("seed", 1, "self-host: content seed for scene 0")
	seedStride := flag.Int64("scene-seed-stride", 0, "self-host: scene k content seed = seed+k*stride; 0 = identical content in every scene (maximal cross-session cache sharing)")
	cacheMB := flag.Int("cache", -1, "self-host: hub-wide shared cache budget in MB (-1 = VOLCAST_CACHE_MB or 64)")
	faultReset := flag.Float64("fault-reset", 0, "per-connection probability of a mid-stream reset (client-side faultnet)")
	faultResetKB := flag.Int64("fault-reset-kb", 256, "mean KB before a scheduled reset fires")
	faultLatency := flag.Duration("fault-latency", 0, "added latency per socket op")
	faultStallEvery := flag.Int("fault-stall-every", 0, "stall every Nth read (0 = never)")
	faultStallDur := flag.Duration("fault-stall", 20*time.Millisecond, "injected read-stall duration")
	fps := flag.Int("fps", 0, "self-host: override every scene's frame rate (0 = store rate)")
	queueDepth := flag.Int("queue-depth", 0, "self-host: per-subscriber outbound queue capacity (0 = hub default)")
	capScene := flag.Int("cap-scene", -1, "link-cap this scene's clients at -cap-mbps via a client-side faultnet bandwidth cap — the TCP-path analogue of the sim path's LinkCapMbps (-1 = none)")
	capMbps := flag.Float64("cap-mbps", 0.25, "bandwidth cap in Mbps for -cap-scene clients")
	debugAddr := flag.String("debug-addr", "", "debug endpoint to scrape /sessions from during the run; when self-hosting, volload serves the debug mux itself on this address (127.0.0.1:0 picks a free port)")
	scrapeEvery := flag.Duration("scrape-every", time.Second, "interval between /sessions scrapes (needs -debug-addr)")
	sloP99 := flag.Float64("slo-p99", 33, "self-host SLO: windowed p99 frame latency ceiling in ms (0 = unchecked)")
	sloMissRate := flag.Float64("slo-missrate", 0.05, "self-host SLO: windowed deadline-miss rate ceiling (0 = unchecked)")
	sloMinSamples := flag.Int64("slo-min-samples", 30, "self-host SLO: minimum windowed frames+misses before a scene is evaluated")
	sloEvery := flag.Duration("slo-every", time.Second, "self-host SLO: evaluation interval (negative disables)")
	sloRecoverAfter := flag.Int("slo-recover-after", 3, "self-host SLO: consecutive healthy evaluations before a breached scene recovers")
	flightDir := flag.String("flight-dir", "", "self-host: breach flight-dump directory (empty = recorder disabled)")
	flightMax := flag.Int("flight-max", 8, "self-host: max flight dumps retained")
	flightInterval := flag.Duration("flight-interval", 10*time.Second, "self-host: min interval between flight captures")
	layersOn := flag.Bool("layers", false, "push clients advertise layered serving, so density upgrades arrive as enhancement-only deltas")
	probeUpgrade := flag.Bool("probe-upgrade", false, "run one layered pull probe per scene that requests a coarse rung for the first half of the run, then flips to full density — a deterministic tier upgrade that must arrive as enhancement-only deltas")
	probeStride := flag.Int("probe-stride", 2, "coarse rung the -probe-upgrade probes start at")
	out := flag.String("out", "", "write the JSON report here (empty = stdout)")
	minFrames := flag.Int64("min-frames", 1, "exit nonzero unless at least this many frames completed in total")
	minDeltaCells := flag.Int64("min-delta-cells", -1, "exit nonzero unless at least this many cells arrived as enhancement-only deltas AND their wire bytes undercut a full re-send (-1 = no gate)")
	minCacheHits := flag.Int64("min-cache-hits", -1, "exit nonzero unless the self-host encode tier recorded at least this many hits (-1 = no gate)")
	minBreaches := flag.Int64("min-breaches", -1, "exit nonzero unless total SLO breaches >= this (-1 = no gate)")
	maxBreaches := flag.Int64("max-breaches", -1, "exit nonzero when total SLO breaches > this (-1 = no gate)")
	requireLiveQuantiles := flag.Bool("require-live-quantiles", false, "exit nonzero unless the scraped windowed quantiles changed across two scrapes")
	flag.Parse()
	if *sessions < 1 || *clients < 1 {
		log.Fatal("volload: need -sessions >= 1 and -clients >= 1")
	}

	goroutinesStart := runtime.NumGoroutine()
	rep := report{
		Sessions:        *sessions,
		Clients:         *clients,
		LoadSeed:        *loadSeed,
		GoroutinesStart: goroutinesStart,
	}
	if *churnEvery > 0 {
		rep.ChurnEvery = churnEvery.String()
	}

	// Self-host a hub unless pointed at an external server. The self-host
	// path carries the full SLO plane — event log, SLO engine, flight
	// recorder — so a single volload run can gate breach behavior end to
	// end (make slo-smoke).
	var h *hub.Hub
	var debugSrv *http.Server
	var engine *obs.SLOEngine
	var flight *obs.FlightRecorder
	target := *addr
	scrapeBase := ""
	if target == "" {
		blockcache.SetBudgetMB(*cacheMB)
		tracer := obs.New(1 << 16)
		events := obs.NewEventLog(1024)
		if *flightDir != "" {
			flight = obs.NewFlightRecorder(*flightDir, tracer, *flightMax, *flightInterval)
		}
		engine = obs.NewSLOEngine(obs.SLOTargets{
			P99MaxMS:     *sloP99,
			MissRateMax:  *sloMissRate,
			MinSamples:   *sloMinSamples,
			RecoverAfter: *sloRecoverAfter,
		}, events, flight)
		var err error
		h, err = hub.New(hub.Config{
			NewStore:    sceneFactory(*frames, *points, *performers, *seed, *seedStride),
			MaxSessions: *sessions,
			ReapAfter:   -1, // sessions live for the whole run
			FPS:         *fps,
			QueueDepth:  *queueDepth,
			Trace:       tracer,
			Events:      events,
			SLO:         engine,
			SLOEvery:    *sloEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		ready := make(chan string, 1)
		go func() {
			if err := h.ListenAndServe("127.0.0.1:0", ready); err != nil {
				log.Fatalf("volload: hub: %v", err)
			}
		}()
		target = <-ready
		log.Printf("volload: self-hosted hub on %s", target)
		if *debugAddr != "" {
			// Serve the same debug mux volserve would, so the scrape path
			// below exercises the real /sessions HTTP surface rather than
			// reading the hub in-process.
			ln, err := net.Listen("tcp", *debugAddr)
			if err != nil {
				log.Fatalf("volload: debug listener: %v", err)
			}
			debugSrv = &http.Server{Handler: obs.NewDebugMux(obs.DebugConfig{
				Tracer:    tracer,
				UserLabel: h.SubscriberLabel,
				Sessions:  h.SessionInfos,
				SLO:       engine,
				Events:    events,
			})}
			go debugSrv.Serve(ln)
			scrapeBase = "http://" + ln.Addr().String()
			log.Printf("volload: debug endpoint on %s", ln.Addr())
		}
	} else if *debugAddr != "" {
		scrapeBase = "http://" + *debugAddr
	}

	// Link cap: clients of -cap-scene dial through a bandwidth-capped
	// faultnet wrapper, the socket-layer twin of the sim path's
	// LinkCapMbps — the pinned way to starve exactly one session.
	var capDialer *faultnet.Dialer
	if *capScene >= 0 && *capMbps > 0 {
		capDialer = faultnet.NewDialer(faultnet.Config{
			Seed:         *loadSeed,
			BandwidthBps: int64(*capMbps * 1e6 / 8),
		})
		log.Printf("volload: scene %d link-capped at %.2f Mbps", *capScene, *capMbps)
	}

	// Pose streams: the study cohort's real-motion traces, one per
	// client round-robin, so viewports overlap the way the paper's user
	// study says they do (that overlap is what the multicast marking and
	// the shared fan-out buffers exploit).
	study := trace.GenerateStudy(int(duration.Seconds()*30)+60, *loadSeed)

	var dialer *faultnet.Dialer
	if *faultReset > 0 || *faultLatency > 0 || *faultStallEvery > 0 {
		kb := *faultResetKB
		if kb < 2 {
			kb = 2
		}
		dialer = faultnet.NewDialer(faultnet.Config{
			Seed:            *loadSeed,
			Latency:         *faultLatency,
			ResetProb:       *faultReset,
			ResetAfterBytes: [2]int64{kb << 9, kb << 10 * 3 / 2},
			StallEvery:      *faultStallEvery,
			StallDur:        *faultStallDur,
		})
		log.Printf("volload: client-side faults enabled (seed %d): reset p=%.2f @~%dKB, stall 1/%d×%v, latency %v",
			*loadSeed, *faultReset, kb, *faultStallEvery, *faultStallDur, *faultLatency)
	}

	log.Printf("volload: driving %d clients across %d sessions for %v…", *clients, *sessions, *duration)
	start := time.Now()
	deadline := start.Add(*duration)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	// Per-client accumulators; merged single-threaded after the fleet
	// lands, so the hot path takes no shared locks.
	latencies := make([][]float64, *clients)
	stats := make([]transport.ClientStats, *clients)
	joins := make([]int64, *clients)
	errs := make([]int64, *clients)

	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*loadSeed*1_000_003 + int64(i)))
			// Stagger arrivals across the first second so a 500-client
			// fleet does not land as one accept burst.
			select {
			case <-time.After(time.Duration(rng.Int63n(int64(time.Second)))):
			case <-ctx.Done():
				return
			}
			cfg := transport.ClientConfig{
				Addr:      target,
				ID:        uint32(i + 1),
				Name:      fmt.Sprintf("load%d", i),
				Scene:     uint32(i % *sessions),
				Trace:     study.Traces[i%len(study.Traces)],
				Decode:    *decode,
				Layers:    *layersOn,
				Reconnect: true,
				OnFrameLatency: func(d time.Duration) {
					latencies[i] = append(latencies[i], float64(d)/float64(time.Millisecond))
				},
			}
			wrap, capped := dialer, false
			if capDialer != nil && i%*sessions == *capScene {
				wrap, capped = capDialer, true
			}
			if wrap != nil {
				cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
					d := net.Dialer{Timeout: 5 * time.Second}
					conn, err := d.DialContext(ctx, "tcp", addr)
					if err != nil {
						return nil, err
					}
					if capped {
						// A tiny kernel receive buffer makes the paced reads
						// jam the sender's TCP window within a frame or two
						// instead of after megabytes of kernel buffering.
						if tc, ok := conn.(*net.TCPConn); ok {
							tc.SetReadBuffer(2048)
						}
					}
					return wrap.Wrap(conn), nil
				}
			}
			for {
				left := time.Until(deadline)
				if left <= 50*time.Millisecond {
					return
				}
				cfg.Duration = left
				if *churnEvery > 0 {
					// Jittered session length: leave, pause a beat, rejoin
					// as a fresh connection — the lifecycle churn that
					// exercises session reap/rebuild under load.
					stay := *churnEvery/2 + time.Duration(rng.Int63n(int64(*churnEvery)))
					if stay < left {
						cfg.Duration = stay
					}
				}
				joins[i]++
				s, err := transport.RunClient(ctx, cfg)
				stats[i].Frames += s.Frames
				stats[i].Cells += s.Cells
				stats[i].Bytes += s.Bytes
				stats[i].DecodeErrors += s.DecodeErrors
				stats[i].FramesDropped += s.FramesDropped
				stats[i].Reconnects += s.Reconnects
				if err != nil {
					errs[i]++
				}
				if *churnEvery == 0 && err == nil {
					return // stayed for the whole run
				}
				select {
				case <-time.After(time.Duration(rng.Int63n(int64(100 * time.Millisecond)))):
				case <-ctx.Done():
					return
				}
			}
		}(i)
	}

	// Tier-upgrade probes: one layered pull client per scene holds a
	// coarse prefix for the first half of the run, then requests full
	// density — with looped static content the upgrade must come back as
	// enhancement-only deltas, the scenario make layer-smoke gates.
	var probeMu sync.Mutex
	var probeStats []transport.ClientStats
	var probeErrs int64
	if *probeUpgrade {
		fpsEff := *fps
		if fpsEff <= 0 {
			fpsEff = 30
		}
		// Flip after one second of content frames, not at half-duration: a
		// probe pacing below the content rate under load still reaches the
		// flip with most of the run left to ship and verify the deltas.
		flip := uint32(fpsEff)
		coarse := uint8(*probeStride)
		for s := 0; s < *sessions; s++ {
			wg.Add(1)
			go func(scene int) {
				defer wg.Done()
				ps, err := transport.RunPullClient(ctx, transport.PullClientConfig{
					Addr:     target,
					ID:       uint32(10_000 + scene),
					Scene:    uint32(scene),
					Trace:    study.Traces[scene%len(study.Traces)],
					Duration: *duration,
					Stride:   coarse,
					Decode:   true,
					Layers:   true,
					StrideAt: func(frame uint32) uint8 {
						if frame >= flip {
							return 1
						}
						return coarse
					},
				})
				probeMu.Lock()
				probeStats = append(probeStats, ps)
				if err != nil {
					probeErrs++
				}
				probeMu.Unlock()
			}(s)
		}
		log.Printf("volload: %d layered upgrade probes, stride %d → 1 at frame %d", *sessions, *probeStride, flip)
	}

	// Scrape loop: poll /sessions during the run so the report can attest
	// that the windowed quantiles are live, not frozen lifetime numbers.
	sc := &scraper{}
	scrapeDone := make(chan struct{})
	if scrapeBase != "" {
		go func() {
			defer close(scrapeDone)
			ticker := time.NewTicker(*scrapeEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					sc.poll(scrapeBase)
				}
			}
		}()
	} else {
		close(scrapeDone)
	}

	// The fleet must land on its own; a hang here is a finding, not a
	// wait. Budget: the run plus a generous drain allowance.
	fleetDone := make(chan struct{})
	go func() { defer close(fleetDone); wg.Wait() }()
	select {
	case <-fleetDone:
	case <-time.After(*duration + 30*time.Second):
		rep.Hung = true
		log.Printf("volload: HANG — fleet still running %v past the deadline", 30*time.Second)
	}
	rep.DurationS = time.Since(start).Seconds()
	cancel()
	<-scrapeDone

	// SLO readout: the engine is authoritative when self-hosting; an
	// external run reads whatever the /sessions scrapes saw last.
	if engine != nil || sc.scrapes > 0 {
		sc.mu.Lock()
		slo := &sloReport{
			Scrapes:       sc.scrapes,
			QuantilesLive: sc.quantilesLive,
			PerSession:    map[string]sessionSLO{},
		}
		lastScrape := map[string]obs.SessionInfo{}
		for _, row := range sc.last {
			lastScrape[row.Scene] = row
		}
		sc.mu.Unlock()
		if engine != nil {
			t := engine.Targets()
			slo.Targets = &t
			for _, st := range engine.Status() {
				slo.PerSession[st.Scene] = sessionSLO{
					Breached:     st.Breached,
					Breaches:     st.Breaches,
					WindowFrames: st.Window.Frames,
					WindowMisses: st.Window.Misses,
					P99MS:        st.Window.P99MS,
				}
			}
		} else {
			for scene, row := range lastScrape {
				slo.PerSession[scene] = sessionSLO{
					Breached:     row.SLOBreached,
					Breaches:     row.SLOBreaches,
					WindowFrames: row.WindowFrames,
					WindowMisses: row.WindowMisses,
					P99MS:        row.P99MS,
				}
			}
		}
		for _, s := range slo.PerSession {
			slo.BreachesTotal += s.Breaches
		}
		if flight != nil {
			slo.FlightDir = flight.Dir()
			dumps, _ := filepath.Glob(filepath.Join(flight.Dir(), "flight_*.json"))
			slo.FlightDumps = len(dumps)
		}
		rep.SLO = slo
	}

	// Stop everything this process started, the scrape plumbing included,
	// so the goroutine gate below counts leaks and nothing else.
	if h != nil {
		h.Shutdown()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	http.DefaultClient.CloseIdleConnections()

	// Aggregate.
	var all []float64
	for i := range stats {
		rep.Frames += int64(stats[i].Frames)
		rep.Cells += int64(stats[i].Cells)
		rep.Bytes += stats[i].Bytes
		rep.FramesDropped += int64(stats[i].FramesDropped)
		rep.DecodeErrors += int64(stats[i].DecodeErrors)
		rep.Reconnects += int64(stats[i].Reconnects)
		rep.Joins += joins[i]
		rep.ClientErrors += errs[i]
		all = append(all, latencies[i]...)
	}
	if *layersOn || *probeUpgrade {
		ls := &layerStats{}
		for i := range stats {
			ls.DeltaCells += int64(stats[i].DeltaCells)
			ls.DeltaBytes += stats[i].DeltaBytes
			ls.DeltaFullBytes += stats[i].DeltaFullBytes
		}
		probeMu.Lock()
		ls.Probes = len(probeStats)
		for i := range probeStats {
			ls.ProbeFrames += int64(probeStats[i].Frames)
			ls.ProbeDropped += int64(probeStats[i].FramesDropped)
			ls.ProbeCells += int64(probeStats[i].Cells)
			ls.DeltaCells += int64(probeStats[i].DeltaCells)
			ls.DeltaBytes += probeStats[i].DeltaBytes
			ls.DeltaFullBytes += probeStats[i].DeltaFullBytes
			rep.DecodeErrors += int64(probeStats[i].DecodeErrors)
		}
		rep.ClientErrors += probeErrs
		probeMu.Unlock()
		if ls.DeltaFullBytes > 0 {
			ls.SavingsFrac = 1 - float64(ls.DeltaBytes)/float64(ls.DeltaFullBytes)
		}
		rep.Layers = ls
	}
	sort.Float64s(all)
	rep.Latency = latencyStats{
		Samples: len(all),
		P50:     percentile(all, 0.50),
		P95:     percentile(all, 0.95),
		P99:     percentile(all, 0.99),
	}
	if n := len(all); n > 0 {
		rep.Latency.Max = all[n-1]
	}
	snap := metrics.Default().Snapshot()
	rep.DropsEnqueue = snap.Counters["transport.drops.enqueue"]
	rep.DropsSlowClient = snap.Counters["transport.drops.slowclient"]
	if h != nil {
		cs := &cacheStats{
			EncodeHits:   snap.Counters["blockcache.encode.hits"],
			EncodeMisses: snap.Counters["blockcache.encode.misses"],
			PerSession:   map[string]hitMiss{},
		}
		if total := cs.EncodeHits + cs.EncodeMisses; total > 0 {
			cs.HitRate = float64(cs.EncodeHits) / float64(total)
		}
		for name, v := range snap.Counters {
			rest, ok := strings.CutPrefix(name, "blockcache.encode.session.")
			if !ok {
				continue
			}
			label, kind, ok := strings.Cut(rest, ".")
			if !ok {
				continue
			}
			hm := cs.PerSession[label]
			switch kind {
			case "hits":
				hm.Hits = v
			case "misses":
				hm.Misses = v
			}
			cs.PerSession[label] = hm
		}
		rep.Cache = cs
	}

	// Leak check: give drained writers/readers a beat to unwind, then
	// record where the goroutine count settled.
	for i := 0; i < 40; i++ {
		if runtime.NumGoroutine() <= goroutinesStart+2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	rep.GoroutinesEnd = runtime.NumGoroutine()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("volload: report written to %s", *out)
	} else {
		os.Stdout.Write(data)
	}

	log.Printf("volload: %d frames, p50/p95/p99 %.1f/%.1f/%.1f ms, %d joins, %d reconnects, goroutines %d→%d",
		rep.Frames, rep.Latency.P50, rep.Latency.P95, rep.Latency.P99,
		rep.Joins, rep.Reconnects, rep.GoroutinesStart, rep.GoroutinesEnd)
	if rep.Hung {
		log.Fatal("volload: FAILED: run hung")
	}
	if rep.Frames < *minFrames {
		log.Fatalf("volload: FAILED: %d frames < -min-frames %d", rep.Frames, *minFrames)
	}
	if rep.GoroutinesEnd > goroutinesStart+2 {
		log.Fatalf("volload: FAILED: goroutine leak: %d at start, still %d after the hub and fleet stopped", goroutinesStart, rep.GoroutinesEnd)
	}
	// SLO gates: exact breach-count windows for pinned scenarios (the
	// slo-smoke contract is min=max=1), zero tolerance for breaches on
	// uncapped sessions, and a liveness check on the scraped quantiles.
	var breachesTotal int64
	if rep.SLO != nil {
		breachesTotal = rep.SLO.BreachesTotal
	}
	if *minBreaches >= 0 && breachesTotal < *minBreaches {
		log.Fatalf("volload: FAILED: %d SLO breaches < -min-breaches %d", breachesTotal, *minBreaches)
	}
	if *maxBreaches >= 0 && breachesTotal > *maxBreaches {
		log.Fatalf("volload: FAILED: %d SLO breaches > -max-breaches %d", breachesTotal, *maxBreaches)
	}
	if *capScene >= 0 && rep.SLO != nil {
		capLabel := strconv.Itoa(*capScene)
		for scene, s := range rep.SLO.PerSession {
			if scene != capLabel && s.Breaches > 0 {
				log.Fatalf("volload: FAILED: uncapped scene %s breached %d times (only capped scene %s may)", scene, s.Breaches, capLabel)
			}
		}
	}
	if *requireLiveQuantiles {
		if rep.SLO == nil || rep.SLO.Scrapes < 2 || !rep.SLO.QuantilesLive {
			log.Fatal("volload: FAILED: windowed quantiles did not change across two /sessions scrapes")
		}
	}
	// Layered-serving gates: upgrades must actually travel as deltas, the
	// deltas must undercut a full re-send, and (self-host) the shared
	// encode tier must have been hit — the one-encode-serves-every-tier
	// evidence make layer-smoke pins.
	if *minDeltaCells >= 0 {
		var ls layerStats
		if rep.Layers != nil {
			ls = *rep.Layers
		}
		if ls.DeltaCells < *minDeltaCells {
			log.Fatalf("volload: FAILED: %d delta cells < -min-delta-cells %d", ls.DeltaCells, *minDeltaCells)
		}
		if ls.DeltaCells > 0 && ls.DeltaBytes >= ls.DeltaFullBytes {
			log.Fatalf("volload: FAILED: delta bytes %d did not undercut full re-send bytes %d", ls.DeltaBytes, ls.DeltaFullBytes)
		}
	}
	if *minCacheHits >= 0 {
		if rep.Cache == nil {
			log.Fatal("volload: FAILED: -min-cache-hits needs a self-hosted hub (cache stats unavailable)")
		}
		if rep.Cache.EncodeHits < *minCacheHits {
			log.Fatalf("volload: FAILED: %d encode-tier hits < -min-cache-hits %d", rep.Cache.EncodeHits, *minCacheHits)
		}
	}
}

// sceneFactory returns the self-host NewStore: small synthetic content
// per scene, encoded through the scene's labeled view of the shared
// encode tier. A zero stride gives every scene identical content, the
// best case for cross-session sharing.
func sceneFactory(frames, points, performers int, seed, stride int64) func(uint32, codec.BlockCache) (*vivo.Store, error) {
	return func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
		sceneSeed := seed + int64(scene)*stride
		var video *pointcloud.Video
		if performers <= 1 {
			video = pointcloud.SynthVideo(pointcloud.SynthConfig{
				Frames: frames, FPS: 30, PointsPerFrame: points, Seed: sceneSeed, Sway: 1,
			})
		} else {
			video = pointcloud.SynthScene(pointcloud.DefaultSceneConfig(frames, points, sceneSeed))
		}
		b, ok := video.Bounds()
		if !ok {
			return nil, fmt.Errorf("scene %d: empty video", scene)
		}
		g, err := cell.NewGrid(b, cell.Size50)
		if err != nil {
			return nil, err
		}
		enc := codec.NewEncoder(codec.DefaultParams())
		if blocks != nil {
			enc = enc.Cached(blocks)
		}
		return vivo.BuildStore(video, g, enc, []int{1, 2})
	}
}

// percentile reads the q-quantile from an ascending-sorted sample set.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
