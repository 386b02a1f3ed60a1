package metrics

import (
	"strings"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %v, want 0", got)
	}
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	for _, v := range []float64{0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	// The +Inf overflow bucket clamps to the largest finite bound.
	if got := h.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4 (clamped)", got)
	}
	if got := h.Quantile(0.25); got <= 0 || got > 1 {
		t.Errorf("Quantile(0.25) = %v, want in (0,1]", got)
	}
}

func TestSnapshotPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if hs.P50 != 2 {
		t.Errorf("snapshot P50 = %v, want 2", hs.P50)
	}
	if hs.P99 != 4 {
		t.Errorf("snapshot P99 = %v, want 4", hs.P99)
	}
	if !strings.Contains(r.String(), "p95=") {
		t.Errorf("String() lacks percentiles:\n%s", r.String())
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("steady").Add(5)
	r.Counter("busy").Add(10)
	r.Histogram("work", nil).Observe(10)
	r.Histogram("lat", []float64{1, 10}).Observe(0.5)
	prev := r.Snapshot()

	r.Counter("busy").Add(3)
	r.Counter("fresh").Add(2)
	r.Histogram("work", nil).Observe(30)
	r.Histogram("lat", []float64{1, 10}).Observe(5)
	d := r.Snapshot().Delta(prev)

	// Untouched counters drop out; active ones report the increment only.
	if _, ok := d.Counters["steady"]; ok {
		t.Error("idle counter survived the delta")
	}
	if d.Counters["busy"] != 3 {
		t.Errorf("busy delta = %d, want 3", d.Counters["busy"])
	}
	if d.Counters["fresh"] != 2 {
		t.Errorf("fresh delta = %d, want 2", d.Counters["fresh"])
	}

	w, ok := d.Histograms["work"]
	if !ok {
		t.Fatal("active stage histogram dropped from the delta")
	}
	if w.Count != 1 {
		t.Errorf("stage delta count = %d, want 1", w.Count)
	}
	if w.Mean < 29 || w.Mean > 31 {
		t.Errorf("stage interval mean = %vms, want ~30", w.Mean)
	}

	l, ok := d.Histograms["lat"]
	if !ok {
		t.Fatal("active histogram dropped from the delta")
	}
	if l.Count != 1 {
		t.Errorf("histogram delta n = %d, want 1", l.Count)
	}
	if l.Mean < 4.9 || l.Mean > 5.1 {
		t.Errorf("histogram interval mean = %v, want ~5", l.Mean)
	}
	var total int64
	for _, c := range l.Counts {
		total += c
	}
	if total != 1 {
		t.Errorf("histogram delta buckets sum to %d, want 1", total)
	}

	// A fully idle interval produces an empty delta and empty string.
	same := r.Snapshot()
	idle := same.Delta(same)
	if len(idle.Counters)+len(idle.Histograms) != 0 {
		t.Errorf("self-delta is non-empty: %+v", idle)
	}
	if idle.String() != "" {
		t.Errorf("idle delta String() = %q, want empty", idle.String())
	}
	if !strings.Contains(d.String(), "busy") {
		t.Errorf("delta String() lacks the busy counter:\n%s", d.String())
	}
}
