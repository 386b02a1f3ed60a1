package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"volcast/internal/metrics"
)

// DebugConfig wires the live debug endpoint.
type DebugConfig struct {
	// Metrics is the registry served at /metrics (nil = process default).
	Metrics *metrics.Registry
	// Tracer backs /trace and /qoe (nil = process default at request
	// time, so the endpoint works however the tracer is installed).
	Tracer *Tracer
	// UserLabel resolves a tracer user id to a human-readable label for
	// the /qoe table — with a session hub in front, hub.SubscriberLabel
	// turns bare ids into "scene<N>/<client>" rows (nil = no labels).
	UserLabel func(user int) string
	// Sessions returns the live per-session table for /sessions — with
	// a hub in front, hub.SessionInfos (nil = endpoint reports none).
	Sessions func() []SessionInfo
	// SLO backs /slo (nil = endpoint reports disabled).
	SLO *SLOEngine
	// Events backs /events (nil = endpoint reports empty).
	Events *EventLog
}

// SessionInfo is one row of the /sessions live table.
type SessionInfo struct {
	Scene       string `json:"scene"`
	Subscribers int    `json:"subscribers"`
	Frames      int64  `json:"frames"`
	// Windowed frame-latency quantiles (milliseconds) over the last
	// ~10s, plus the windowed delivery/miss counts the SLO engine reads.
	WindowFrames int64   `json:"window_frames"`
	WindowMisses int64   `json:"window_misses"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	// CacheHitRate is the encode-tier block cache hit rate (0..1).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SLOBreached/SLOBreaches mirror the SLO engine's state for the row.
	SLOBreached bool  `json:"slo_breached"`
	SLOBreaches int64 `json:"slo_breaches"`
}

// NewDebugMux returns the live debug mux served by volserve -debug-addr:
//
//	/metrics        counters, stage and latency histograms (text; ?format=json)
//	/trace          last-N-spans Perfetto dump (load in ui.perfetto.dev;
//	                ?format=text for the compact timeline)
//	/qoe            per-user frame/deadline-miss/stall table (?format=json)
//	/debug/pprof/   the standard Go profiler endpoints
func NewDebugMux(cfg DebugConfig) *http.ServeMux {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	tracer := func() *Tracer {
		if cfg.Tracer != nil {
			return cfg.Tracer
		}
		return Default()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			data, err := reg.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(data)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, reg.String())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		t := tracer()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if t == nil {
				fmt.Fprintln(w, "tracing disabled")
				return
			}
			t.WriteTimeline(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := t.WritePerfetto(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/qoe", func(w http.ResponseWriter, r *http.Request) {
		t := tracer()
		rows := t.QoE()
		if rows == nil {
			rows = []UserQoE{}
		}
		if cfg.UserLabel != nil {
			for i := range rows {
				rows[i].Label = cfg.UserLabel(rows[i].User)
			}
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rows)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if t == nil {
			fmt.Fprintln(w, "tracing disabled")
			return
		}
		fmt.Fprintf(w, "%-6s %-22s %8s %8s %8s %10s %8s %10s %s\n",
			"user", "label", "frames", "misses", "miss%", "avg ms", "est fps", "stall ms", "top stage")
		for _, q := range rows {
			fmt.Fprintf(w, "%-6d %-22s %8d %8d %7.1f%% %10.2f %8.1f %10.1f %s\n",
				q.User, q.Label, q.Frames, q.Misses, q.MissPct, q.AvgFrameMS, q.EstFPS, q.StallMS, q.TopStage)
		}
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.PromContentType)
		if err := reg.WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		var rows []SessionInfo
		if cfg.Sessions != nil {
			rows = cfg.Sessions()
		}
		if rows == nil {
			rows = []SessionInfo{}
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rows)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-20s %6s %10s %9s %9s %8s %8s %8s %7s %5s %8s\n",
			"scene", "subs", "frames", "w.frames", "w.misses", "p50 ms", "p95 ms", "p99 ms", "cache%", "slo", "breaches")
		for _, s := range rows {
			slo := "ok"
			if s.SLOBreached {
				slo = "BREACH"
			}
			fmt.Fprintf(w, "%-20s %6d %10d %9d %9d %8.2f %8.2f %8.2f %6.1f%% %5s %8d\n",
				s.Scene, s.Subscribers, s.Frames, s.WindowFrames, s.WindowMisses,
				s.P50MS, s.P95MS, s.P99MS, s.CacheHitRate*100, slo, s.SLOBreaches)
		}
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				Targets  SLOTargets  `json:"targets"`
				Sessions []SLOStatus `json:"sessions"`
			}{cfg.SLO.Targets(), append([]SLOStatus{}, cfg.SLO.Status()...)})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.SLO == nil {
			fmt.Fprintln(w, "slo engine disabled")
			return
		}
		t := cfg.SLO.Targets()
		fmt.Fprintf(w, "targets: p99<=%.0fms miss_rate<=%.1f%% min_samples=%d recover_after=%d\n\n",
			t.P99MaxMS, t.MissRateMax*100, t.MinSamples, t.RecoverAfter)
		fmt.Fprintf(w, "%-20s %-8s %-10s %8s %8s %8s %9s %9s\n",
			"scene", "state", "reason", "breaches", "evals", "p99 ms", "w.frames", "w.misses")
		for _, s := range cfg.SLO.Status() {
			state := "healthy"
			if s.Breached {
				state = "BREACHED"
			}
			fmt.Fprintf(w, "%-20s %-8s %-10s %8d %8d %8.2f %9d %9d\n",
				s.Scene, state, s.Reason, s.Breaches, s.Evals,
				s.Window.P99MS, s.Window.Frames, s.Window.Misses)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		events := cfg.Events.Snapshot()
		if events == nil {
			events = []Event{}
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(events)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, e := range events {
			fmt.Fprintf(w, "%8d %s %-12s %-20s sub=%d %s\n",
				e.Seq, time.Unix(0, e.TimeUnixNano).UTC().Format("15:04:05.000"),
				e.Type, e.Scene, e.Sub, e.Detail)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "volcast debug endpoint\n\n"+
			"  /metrics       stage metrics (text; ?format=json)\n"+
			"  /metrics/prom  Prometheus/OpenMetrics text exposition\n"+
			"  /sessions      live per-session table (?format=json)\n"+
			"  /slo           SLO targets and per-session state (?format=json)\n"+
			"  /events        structured event ring (?format=json)\n"+
			"  /trace         Perfetto trace_event dump (?format=text for timeline)\n"+
			"  /qoe           per-user deadline-miss table (?format=json)\n"+
			"  /debug/pprof/  Go profiler\n")
	})
	return mux
}
