package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	path, err := f.Capture("s", 1, "p99")
	if path != "" || err != nil {
		t.Fatalf("nil Capture = (%q, %v)", path, err)
	}
	if f.Captured() != 0 || f.Suppressed() != 0 || f.Dir() != "" {
		t.Fatal("nil recorder must read zero")
	}
}

func TestFlightRecorderRateLimit(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(dir, nil, 8, time.Hour)
	clock := time.Unix(1_700_000_000, 0)
	f.now = func() time.Time { return clock }

	if path, err := f.Capture("a", 1, "p99"); err != nil || path == "" {
		t.Fatalf("first capture = (%q, %v)", path, err)
	}
	// Inside the interval: suppressed.
	if path, err := f.Capture("a", 2, "p99"); err != nil || path != "" {
		t.Fatalf("rate-limited capture = (%q, %v)", path, err)
	}
	if f.Captured() != 1 || f.Suppressed() != 1 {
		t.Fatalf("captured=%d suppressed=%d", f.Captured(), f.Suppressed())
	}
	// Past the interval: allowed again.
	clock = clock.Add(2 * time.Hour)
	if path, err := f.Capture("a", 3, "p99"); err != nil || path == "" {
		t.Fatalf("post-interval capture = (%q, %v)", path, err)
	}
}

func TestFlightRecorderRetention(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(dir, nil, 2, time.Nanosecond)
	for i := 0; i < 5; i++ {
		if _, err := f.Capture("s", int64(i), "p99"); err != nil {
			t.Fatal(err)
		}
		// Distinct modtimes so retention ordering is deterministic.
		time.Sleep(5 * time.Millisecond)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "flight_*.json"))
	if len(matches) != 2 {
		t.Fatalf("retained %d dumps, want 2: %v", len(matches), matches)
	}
	// The newest two survive.
	want := map[string]bool{"flight_s_3_p99.json": true, "flight_s_4_p99.json": true}
	for _, m := range matches {
		if !want[filepath.Base(m)] {
			t.Fatalf("unexpected survivor %s", m)
		}
	}
}

func TestFlightFilenameSanitization(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(dir, nil, 8, time.Nanosecond)
	path, err := f.Capture("we/ird scene", 7, "miss rate!")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight_we_ird_scene_7_miss_rate_.json" {
		t.Fatalf("path = %s", path)
	}
}

// TestFlightDumpsAreNeverTorn polls the dump directory the way the SLO
// tests and tracelint do — glob flight_*.json, parse every match — while
// captures of a well-filled ring run. A dump becomes visible only once
// it is complete, so every file the glob ever matches must parse.
func TestFlightDumpsAreNeverTorn(t *testing.T) {
	dir := t.TempDir()
	tr := New(1 << 10)
	for i := 0; i < 1<<10; i++ {
		tr.Record(i, i%8, StageSerialize, time.Unix(0, int64(i)), time.Microsecond)
	}
	f := NewFlightRecorder(dir, tr, 4, time.Nanosecond)

	const captures = 24
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < captures; i++ {
			if _, err := f.Capture("s", int64(i), "p99"); err != nil {
				done <- err
				return
			}
		}
	}()
	parsed := 0
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		matches, _ := filepath.Glob(filepath.Join(dir, "flight_*.json"))
		for _, m := range matches {
			data, err := os.ReadFile(m)
			if err != nil {
				continue // pruned between the glob and the read
			}
			var doc map[string]any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("%s is visible but unparsable (%d bytes): %v", filepath.Base(m), len(data), err)
			}
			parsed++
		}
	}
	if parsed == 0 {
		t.Fatal("poller never saw a dump — nothing checked")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".*.tmp")); len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}
