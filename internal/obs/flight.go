package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Flight recorder: on an SLO breach, snapshot the tracer ring to a
// bounded on-disk Perfetto dump so every tail regression at scale ships
// its own trace without anyone reproducing it. While sessions are
// healthy it costs nothing — the recorder only runs when Capture is
// called, captures are rate-limited, and at most maxDumps files are
// retained (oldest evicted by modtime).

// FlightInfo is the breach annotation embedded in a dump under the
// top-level "flight" key (Perfetto viewers ignore unknown keys;
// TestSLOBreachFlightAndEvents requires it, scene and reason filled).
type FlightInfo struct {
	// Scene is the session whose breach triggered the capture.
	Scene string `json:"scene"`
	// Window is the SLO evaluation tick of the breach, tying the dump
	// back to the /events entry.
	Window int64 `json:"window"`
	// Reason is the violated target ("p99", "miss_rate").
	Reason string `json:"reason"`
	// CapturedUnixNano is the wall-clock capture time.
	CapturedUnixNano int64 `json:"captured_unix_nano"`
}

// FlightRecorder writes breach-triggered trace dumps. Safe for
// concurrent use; a nil *FlightRecorder captures nothing.
type FlightRecorder struct {
	mu          sync.Mutex
	dir         string
	tracer      *Tracer
	maxDumps    int
	minInterval time.Duration
	last        time.Time
	captured    int64
	suppressed  int64
	// now is the clock; tests override it to drive the rate limit.
	now func() time.Time
}

// NewFlightRecorder returns a recorder dumping into dir, holding at most
// maxDumps files (<=0 defaults to 8), with at least minInterval between
// captures (<=0 defaults to 10s). The tracer may be nil (dumps are then
// empty skeletons, still annotated).
func NewFlightRecorder(dir string, tracer *Tracer, maxDumps int, minInterval time.Duration) *FlightRecorder {
	if maxDumps <= 0 {
		maxDumps = 8
	}
	if minInterval <= 0 {
		minInterval = 10 * time.Second
	}
	return &FlightRecorder{
		dir:         dir,
		tracer:      tracer,
		maxDumps:    maxDumps,
		minInterval: minInterval,
		now:         time.Now,
	}
}

// sanitizeToken rewrites a filename token to [a-zA-Z0-9_-].
func sanitizeToken(s string) string {
	var b strings.Builder
	for _, r := range s {
		ok := r == '_' || r == '-' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// Capture snapshots the tracer ring to
// dir/flight_<scene>_<window>_<reason>.json and returns the path. A
// capture inside the rate-limit interval is suppressed (returns "", nil).
// The trace render and file I/O run outside the recorder lock; only the
// rate-limit reservation is serialized.
func (f *FlightRecorder) Capture(scene string, window int64, reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	now := f.now()
	if !f.last.IsZero() && now.Sub(f.last) < f.minInterval {
		f.suppressed++
		f.mu.Unlock()
		return "", nil
	}
	f.last = now
	f.captured++
	dir, tracer, maxDumps := f.dir, f.tracer, f.maxDumps
	f.mu.Unlock()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	// Render the Perfetto dump, then splice the breach annotation in as
	// a top-level key (viewers ignore it; TestSLOBreachFlightAndEvents
	// checks it).
	var buf bytes.Buffer
	if err := tracer.WritePerfetto(&buf); err != nil {
		return "", err
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return "", fmt.Errorf("flight: render: %w", err)
	}
	doc["flight"] = FlightInfo{
		Scene:            scene,
		Window:           window,
		Reason:           reason,
		CapturedUnixNano: now.UnixNano(),
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}

	name := fmt.Sprintf("flight_%s_%d_%s.json",
		sanitizeToken(scene), window, sanitizeToken(reason))
	path := filepath.Join(dir, name)
	// Write under a name neither the flight_*.json glob nor the pruner
	// matches, then rename: a reader polling the directory sees a whole
	// dump or none, never a torn one.
	tmp := filepath.Join(dir, "."+name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	pruneFlightDumps(dir, maxDumps)
	return path, nil
}

// pruneFlightDumps evicts the oldest flight_*.json files past keep.
func pruneFlightDumps(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type dump struct {
		path string
		mod  time.Time
	}
	var dumps []dump
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "flight_") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		dumps = append(dumps, dump{filepath.Join(dir, e.Name()), info.ModTime()})
	}
	if len(dumps) <= keep {
		return
	}
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].mod.Before(dumps[j].mod) })
	for _, d := range dumps[:len(dumps)-keep] {
		os.Remove(d.path)
	}
}

// Captured returns the number of dumps written.
//
// Kept: the flight-recorder and SLO tests count dumps with it.
func (f *FlightRecorder) Captured() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.captured
}

// Suppressed returns the number of captures skipped by the rate limit.
//
// Kept: the flight-recorder tests count rate-limited dumps with it.
func (f *FlightRecorder) Suppressed() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.suppressed
}
