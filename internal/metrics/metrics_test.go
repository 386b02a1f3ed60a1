package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAggregation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames")
	c.Inc()
	c.Add(4)
	if got := r.Counter("frames").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Counter("other").Value(); got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
}

// TestTimerAggregation: a stage's durations aggregate in the default
// millisecond histogram.
func TestTimerAggregation(t *testing.T) {
	r := NewRegistry()
	tm := r.Histogram("plan", nil)
	tm.Observe(10)
	tm.Observe(30)
	tm.Observe(20)
	if tm.Count() != 3 {
		t.Fatalf("count = %d", tm.Count())
	}
	if tm.Mean() != 20 {
		t.Fatalf("mean = %v ms", tm.Mean())
	}
	// One sample each in the le10, le20 and le33 buckets.
	if got := r.Snapshot().Histograms["plan"].Counts; got[5] != 1 || got[6] != 1 || got[7] != 1 {
		t.Fatalf("bucket counts = %v", got)
	}
}

// TestTimerTime: the TimeMillis closure records the elapsed time, once.
func TestTimerTime(t *testing.T) {
	r := NewRegistry()
	stop := r.Histogram("stage", nil).TimeMillis()
	if n := r.Histogram("stage", nil).Count(); n != 0 {
		t.Fatalf("TimeMillis() recorded %d samples before its closure ran", n)
	}
	time.Sleep(time.Millisecond)
	stop()
	h := r.Histogram("stage", nil)
	if h.Count() != 1 || h.Mean() < 1 {
		t.Fatalf("TimeMillis() recorded count=%d mean=%vms, want 1 sample of >= 1ms", h.Count(), h.Mean())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 10, 11, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	bounds, counts, _, _ := h.snapshot()
	if len(bounds) != 2 || len(counts) != 3 {
		t.Fatalf("snapshot shape: %v %v", bounds, counts)
	}
	// Upper-bound inclusive: {0.5, 1} | {5, 10} | {11, 100}.
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if got, want := h.Mean(), (0.5+1+5+10+11+100)/6; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// TestConcurrentUpdates hammers every instrument type from many
// goroutines; run with -race to catch unsynchronized access.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Windowed("w", nil).Observe(float64(i))
				r.WindowedCounter("wc").Inc()
				r.Histogram("h", nil).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", r.Counter("c").Value())
	}
	if r.Windowed("w", nil).Count() != 4000 || r.WindowedCounter("wc").Value() != 4000 {
		t.Fatalf("window count = %d, window counter = %d, want 4000",
			r.Windowed("w", nil).Count(), r.WindowedCounter("wc").Value())
	}
	if r.Histogram("h", nil).Count() != 4000 {
		t.Fatalf("hist count = %d, want 4000", r.Histogram("h", nil).Count())
	}
}

// TestStableTextOutput checks that the dump is name-sorted, identical
// across renders, and the one text form: the registry's String is its
// snapshot's, with every instrument kind present.
func TestStableTextOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Counter("a.first").Add(2)
	r.Histogram("m.mid", nil).Observe(1)
	r.Histogram("b.h", []float64{1}).Observe(0.5)
	r.Histogram("b.idle", nil)
	r.Windowed("w.ms", nil).Observe(3)
	r.WindowedCounter("w.misses").Add(2)
	s1 := r.String()
	s2 := r.String()
	if s1 != s2 {
		t.Fatalf("dump not stable:\n%s\nvs\n%s", s1, s2)
	}
	if snap := r.Snapshot().String(); s1 != snap {
		t.Fatalf("Registry.String() is not Snapshot().String():\n%s\nvs\n%s", s1, snap)
	}
	for _, section := range []string{"counters:\n", "histograms:\n", "windows:\n", "window counters:\n"} {
		if !strings.Contains(s1, section) {
			t.Fatalf("dump lacks the %q section:\n%s", section, s1)
		}
	}
	if !strings.Contains(s1, "a.first") || !strings.Contains(s1, "z.last") {
		t.Fatalf("dump missing counters:\n%s", s1)
	}
	if strings.Index(s1, "a.first") > strings.Index(s1, "z.last") {
		t.Fatalf("counters not sorted:\n%s", s1)
	}
}

func TestJSONDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames").Add(7)
	r.Histogram("plan", nil).Observe(2)
	r.Histogram("lat", []float64{1}).Observe(3)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["frames"] != 7 {
		t.Fatalf("json counters = %v", snap.Counters)
	}
	if p := snap.Histograms["plan"]; p.Count != 1 || p.Mean != 2 {
		t.Fatalf("json stage histogram = %+v", p)
	}
	if snap.Histograms["lat"].Count != 1 {
		t.Fatalf("json histograms = %v", snap.Histograms)
	}
}

// TestNilSafety: a nil registry (instrumentation disabled) must accept
// every call without panicking.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Histogram("y", nil).TimeMillis()()
	r.Histogram("z", nil).Observe(1)
	r.Forget("x")
	r.Reset()
	if r.String() != "" {
		t.Fatal("nil registry dump not empty")
	}
	if r.Counter("x").Value() != 0 || r.Histogram("y", nil).Count() != 0 || r.Histogram("z", nil).Count() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil snapshot non-empty")
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Histogram("stage", nil).Observe(1)
	r.Windowed("w", nil).Observe(1)
	r.WindowedCounter("wc").Inc()
	r.Reset()
	if r.String() != "" {
		t.Fatalf("dump after reset: %q", r.String())
	}
}

// TestForget: a prefix drops its instruments of every kind and nothing
// else; a dropped name starts over on its next lookup.
func TestForget(t *testing.T) {
	r := NewRegistry()
	for _, scene := range []string{"1", "10"} {
		p := "hub.session." + scene + "."
		r.Counter(p + "frames").Add(5)
		r.Histogram(p+"build", nil).Observe(1)
		r.Windowed(p+"window.frame_ms", nil).Observe(1)
		r.WindowedCounter(p + "window.misses").Inc()
	}
	held := r.Counter("hub.session.1.frames")
	r.Forget("hub.session.1.")
	dump := r.String()
	if strings.Contains(dump, "hub.session.1.") {
		t.Fatalf("forgotten prefix still in the dump:\n%s", dump)
	}
	if strings.Count(dump, "hub.session.10.") != 4 {
		t.Fatalf("Forget(\"hub.session.1.\") touched scene 10:\n%s", dump)
	}
	held.Inc() // a holder keeps a working instrument
	if got := r.Counter("hub.session.1.frames").Value(); got != 0 {
		t.Fatalf("re-registered counter = %d, want a fresh 0", got)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() == nil {
		t.Fatal("Default() = nil")
	}
	Default().Counter("metrics_test.probe").Inc()
	if Default().Counter("metrics_test.probe").Value() < 1 {
		t.Fatal("default registry did not record")
	}
}
