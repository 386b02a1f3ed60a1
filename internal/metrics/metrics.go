// Package metrics is the pipeline's stage instrumentation: named
// counters and histograms (stage durations in milliseconds, per-layer
// values) collected into a Registry with a stable text dump and a JSON
// dump. All instruments are safe for concurrent use, and every method is
// nil-safe — a component holding a nil *Registry (instrumentation
// disabled) records nothing at zero cost, so callers never need nil
// checks at the recording sites.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, with an implicit +Inf overflow bucket).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// TimeMillis starts a measurement; the returned func records the elapsed
// time in milliseconds — the unit of the default MillisBuckets ladder.
// It exists so sim-path packages can observe latencies without reading
// the wall clock themselves (the determinism lint check).
func (h *Histogram) TimeMillis() func() {
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the sample mean (0 with no samples).
//
// Kept: the metrics tests check TimeMillis's sample with it.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// snapshot returns bounds and counts copies under the lock.
func (h *Histogram) snapshot() (bounds []float64, counts []int64, sum float64, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]int64(nil), h.counts...), h.sum, h.n
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts by
// linear interpolation within the containing bucket; samples in the +Inf
// overflow bucket clamp to the largest finite bound. Returns 0 with no
// samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	bounds, counts, _, n := h.snapshot()
	return quantileFrom(bounds, counts, n, q)
}

// quantileFrom is the bucket-interpolation shared by live histograms and
// snapshots.
func quantileFrom(bounds []float64, counts []int64, n int64, q float64) float64 {
	if n <= 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) { // +Inf overflow bucket: clamp
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (bounds[i]-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// MillisBuckets is the default per-layer latency ladder (milliseconds):
// sub-frame-budget steps up to the 33 ms frame deadline and beyond.
func MillisBuckets() []float64 {
	return []float64{0.1, 0.5, 1, 2, 5, 10, 20, 33, 50, 100, 250, 1000}
}

// Registry is a named collection of instruments. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is valid and
// records nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	windows  map[string]*Windowed
	wcounts  map[string]*WindowedCounter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		windows:  map[string]*Windowed{},
		wcounts:  map[string]*WindowedCounter{},
	}
}

// std is the process-wide default registry (cmds dump it via -stats).
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram. The bounds
// are sorted upper bucket bounds; they are fixed on first creation and
// ignored on later lookups. Nil bounds default to MillisBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = MillisBuckets()
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Windowed returns (creating if needed) the named sliding-window
// histogram over the DefaultWindow/DefaultSubWindows ring. Bounds are
// fixed on first creation (nil defaults to MillisBuckets) and ignored on
// later lookups.
func (r *Registry) Windowed(name string, bounds []float64) *Windowed {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.windows[name]
	if !ok {
		w = NewWindowed(bounds, 0, 0)
		r.windows[name] = w
	}
	return w
}

// WindowedCounter returns (creating if needed) the named sliding-window
// counter over the DefaultWindow/DefaultSubWindows ring.
func (r *Registry) WindowedCounter(name string) *WindowedCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.wcounts[name]
	if !ok {
		c = NewWindowedCounter(0, 0)
		r.wcounts[name] = c
	}
	return c
}

// Reset drops every instrument.
//
// Kept: the reset and nil-safety tests clear a registry with it.
func (r *Registry) Reset() { r.Forget("") }

// Forget drops every instrument whose name starts with prefix, so a
// namespace that names something finite-lived (a reaped scene's
// "hub.session.<label>.") does not outlive it. A holder of a dropped
// instrument keeps recording into it, unseen by Snapshot; the next lookup
// of the name starts a fresh one.
func (r *Registry) Forget(prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	forget(r.counters, prefix)
	forget(r.hists, prefix)
	forget(r.windows, prefix)
	forget(r.wcounts, prefix)
}

func forget[T any](m map[string]T, prefix string) {
	for name := range m {
		if strings.HasPrefix(name, prefix) {
			delete(m, name)
		}
	}
}

// names returns the sorted keys of one instrument map.
func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders every instrument in a stable, name-sorted text form.
func (r *Registry) String() string { return r.Snapshot().String() }

// HistogramStats is the JSON form of one histogram. P50/P95/P99 are
// bucket-interpolated percentile estimates.
type HistogramStats struct {
	Count  int64     `json:"count"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot is the JSON form of a registry. Windows and WindowCounters
// hold the sliding-window instruments' current readouts — already
// per-interval by construction, so Delta carries them through as-is.
type Snapshot struct {
	Counters       map[string]int64          `json:"counters"`
	Histograms     map[string]HistogramStats `json:"histograms"`
	Windows        map[string]WindowStats    `json:"windows,omitempty"`
	WindowCounters map[string]int64          `json:"window_counters,omitempty"`
}

// Snapshot captures the current values of every instrument.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	windows := make(map[string]*Windowed, len(r.windows))
	for k, v := range r.windows {
		windows[k] = v
	}
	wcounts := make(map[string]*WindowedCounter, len(r.wcounts))
	for k, v := range r.wcounts {
		wcounts[k] = v
	}
	r.mu.Unlock()
	if len(windows) > 0 {
		s.Windows = map[string]WindowStats{}
		for name, w := range windows {
			s.Windows[name] = w.Stats()
		}
	}
	if len(wcounts) > 0 {
		s.WindowCounters = map[string]int64{}
		for name, c := range wcounts {
			s.WindowCounters[name] = c.Value()
		}
	}
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range hists {
		bounds, counts, sum, n := h.snapshot()
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
			if math.IsNaN(mean) || math.IsInf(mean, 0) {
				mean = 0
			}
		}
		s.Histograms[name] = HistogramStats{
			Count: n, Mean: mean,
			P50:    quantileFrom(bounds, counts, n, 0.50),
			P95:    quantileFrom(bounds, counts, n, 0.95),
			P99:    quantileFrom(bounds, counts, n, 0.99),
			Bounds: bounds, Counts: counts,
		}
	}
	return s
}

// Delta returns the per-interval difference between this snapshot and an
// earlier one: counter increments, and histogram bucket deltas with the
// interval's mean and percentiles recomputed. Instruments with no
// activity in the interval are dropped, so the result is exactly "what
// happened since prev" — the periodic stats log uses it to report rates
// instead of since-boot totals.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			d.Counters[name] = dv
		}
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok || len(p.Counts) != len(h.Counts) {
			p = HistogramStats{Counts: make([]int64, len(h.Counts))}
		}
		dn := h.Count - p.Count
		if dn == 0 {
			continue
		}
		counts := make([]int64, len(h.Counts))
		for i := range counts {
			counts[i] = h.Counts[i] - p.Counts[i]
		}
		dh := HistogramStats{Count: dn, Bounds: h.Bounds, Counts: counts}
		if dn > 0 {
			dh.Mean = (h.Mean*float64(h.Count) - p.Mean*float64(p.Count)) / float64(dn)
			dh.P50 = quantileFrom(h.Bounds, counts, dn, 0.50)
			dh.P95 = quantileFrom(h.Bounds, counts, dn, 0.95)
			dh.P99 = quantileFrom(h.Bounds, counts, dn, 0.99)
		}
		d.Histograms[name] = dh
	}
	// Windowed instruments are already per-interval readouts: the delta
	// is the current window, carried through when it saw any activity.
	for name, w := range s.Windows {
		if w.Count == 0 {
			continue
		}
		if d.Windows == nil {
			d.Windows = map[string]WindowStats{}
		}
		d.Windows[name] = w
	}
	for name, v := range s.WindowCounters {
		if v == 0 {
			continue
		}
		if d.WindowCounters == nil {
			d.WindowCounters = map[string]int64{}
		}
		d.WindowCounters[name] = v
	}
	return d
}

// String renders a snapshot in a stable, name-sorted text form (the
// -stats dumps and the per-interval stats log).
func (s Snapshot) String() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range names(s.Counters) {
			fmt.Fprintf(&b, "  %-32s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range names(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "  %-32s n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g",
				name, h.Count, h.Mean, h.P50, h.P95, h.P99)
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if i < len(h.Bounds) {
					fmt.Fprintf(&b, " le%g:%d", h.Bounds[i], c)
				} else {
					fmt.Fprintf(&b, " inf:%d", c)
				}
			}
			b.WriteByte('\n')
		}
	}
	if len(s.Windows) > 0 {
		b.WriteString("windows:\n")
		for _, name := range names(s.Windows) {
			w := s.Windows[name]
			fmt.Fprintf(&b, "  %-32s n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g window=%.0fs\n",
				name, w.Count, w.Mean, w.P50, w.P95, w.P99, w.WindowS)
		}
	}
	if len(s.WindowCounters) > 0 {
		b.WriteString("window counters:\n")
		for _, name := range names(s.WindowCounters) {
			fmt.Fprintf(&b, "  %-32s %d\n", name, s.WindowCounters[name])
		}
	}
	return b.String()
}

// JSON renders the registry as indented JSON with sorted keys.
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
