package metrics

import (
	"sort"
	"sync"
	"time"
)

// Sliding-window instruments: where Counter/Histogram accumulate
// process-lifetime totals, Windowed and WindowedCounter answer "what
// happened over the last ~W seconds" — the question an SLO evaluator has
// to ask, because a per-session tail regression is invisible inside a
// lifetime aggregate. Both are a ring of sub-window buckets: observations
// land in the current sub-window, and advancing the ring subtracts the
// expired sub-window from a running aggregate, so observation and readout
// stay O(buckets) regardless of window length, with no per-sample memory.

// DefaultWindow is the sliding-window span used by Registry-created
// windowed instruments.
const DefaultWindow = 10 * time.Second

// DefaultSubWindows is the ring granularity of Registry-created windowed
// instruments: the window expires in DefaultWindow/DefaultSubWindows
// steps rather than all at once.
const DefaultSubWindows = 10

// Windowed is a sliding-window histogram. All methods are safe for
// concurrent use and nil-safe (a nil *Windowed records nothing).
type Windowed struct {
	mu     sync.Mutex
	bounds []float64
	subs   [][]int64 // ring: per-sub-window bucket counts
	subSum []float64
	subN   []int64
	agg    []int64 // running totals over the live sub-windows
	aggSum float64
	aggN   int64
	cur    int
	curEnd time.Time // end of the current sub-window
	subDur time.Duration
	// now is the clock; tests override it to drive rotation
	// deterministically.
	now func() time.Time
}

// NewWindowed returns a sliding-window histogram over the given sorted
// upper bucket bounds (nil = MillisBuckets), covering roughly window
// (0 = DefaultWindow) split into subWindows ring slots (0 =
// DefaultSubWindows).
func NewWindowed(bounds []float64, window time.Duration, subWindows int) *Windowed {
	if len(bounds) == 0 {
		bounds = MillisBuckets()
	}
	if window <= 0 {
		window = DefaultWindow
	}
	if subWindows <= 0 {
		subWindows = DefaultSubWindows
	}
	w := &Windowed{
		bounds: append([]float64(nil), bounds...),
		subs:   make([][]int64, subWindows),
		subSum: make([]float64, subWindows),
		subN:   make([]int64, subWindows),
		agg:    make([]int64, len(bounds)+1),
		subDur: window / time.Duration(subWindows),
		now:    time.Now,
	}
	for i := range w.subs {
		w.subs[i] = make([]int64, len(bounds)+1)
	}
	w.curEnd = w.now().Add(w.subDur)
	return w
}

// rotate advances the ring past every expired sub-window. Called with
// w.mu held. A long idle gap clears the whole ring in one pass instead
// of stepping through it.
func (w *Windowed) rotate() {
	now := w.now()
	if !now.After(w.curEnd) {
		return
	}
	// Ceiling division: now is in the sub-window ending at
	// curEnd+steps*subDur.
	steps := int((now.Sub(w.curEnd) + w.subDur - 1) / w.subDur)
	if steps >= len(w.subs) {
		// Everything in the window expired.
		for i := range w.subs {
			for j := range w.subs[i] {
				w.subs[i][j] = 0
			}
			w.subSum[i], w.subN[i] = 0, 0
		}
		for j := range w.agg {
			w.agg[j] = 0
		}
		w.aggSum, w.aggN = 0, 0
		w.curEnd = now.Add(w.subDur)
		return
	}
	for s := 0; s < steps; s++ {
		w.cur = (w.cur + 1) % len(w.subs)
		for j, c := range w.subs[w.cur] {
			w.agg[j] -= c
			w.subs[w.cur][j] = 0
		}
		w.aggSum -= w.subSum[w.cur]
		w.aggN -= w.subN[w.cur]
		w.subSum[w.cur], w.subN[w.cur] = 0, 0
		w.curEnd = w.curEnd.Add(w.subDur)
	}
}

// Observe records one sample into the current sub-window.
//
//vollint:hotpath
func (w *Windowed) Observe(v float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	i := sort.SearchFloat64s(w.bounds, v)
	w.subs[w.cur][i]++
	w.subSum[w.cur] += v
	w.subN[w.cur]++
	w.agg[i]++
	w.aggSum += v
	w.aggN++
}

// Count returns the number of samples inside the window.
//
// Kept: the window tests count what a window holds with it.
func (w *Windowed) Count() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	return w.aggN
}

// Quantile estimates the q-th quantile (0..1) over the window, by the
// same bucket interpolation as Histogram.Quantile. 0 with no samples.
//
// Kept: the window and exposition tests read quantiles with it.
func (w *Windowed) Quantile(q float64) float64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	return quantileFrom(w.bounds, w.agg, w.aggN, q)
}

// WindowStats is one consistent readout of a sliding-window histogram.
type WindowStats struct {
	Count   int64   `json:"count"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	WindowS float64 `json:"window_s"`
}

// Stats returns the window's count, mean and quantiles in one locked
// pass, so the numbers are mutually consistent.
func (w *Windowed) Stats() WindowStats {
	if w == nil {
		return WindowStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	s := WindowStats{
		Count:   w.aggN,
		P50:     quantileFrom(w.bounds, w.agg, w.aggN, 0.50),
		P95:     quantileFrom(w.bounds, w.agg, w.aggN, 0.95),
		P99:     quantileFrom(w.bounds, w.agg, w.aggN, 0.99),
		WindowS: (time.Duration(len(w.subs)) * w.subDur).Seconds(),
	}
	if w.aggN > 0 {
		s.Mean = w.aggSum / float64(w.aggN)
	}
	return s
}

// WindowedCounter is a sliding-window event count: Value is the number
// of events over the last window, not since boot. Safe for concurrent
// use and nil-safe.
type WindowedCounter struct {
	mu     sync.Mutex
	subs   []int64
	agg    int64
	cur    int
	curEnd time.Time
	subDur time.Duration
	now    func() time.Time
}

// NewWindowedCounter returns a sliding-window counter over roughly
// window (0 = DefaultWindow) split into subWindows ring slots (0 =
// DefaultSubWindows).
func NewWindowedCounter(window time.Duration, subWindows int) *WindowedCounter {
	if window <= 0 {
		window = DefaultWindow
	}
	if subWindows <= 0 {
		subWindows = DefaultSubWindows
	}
	c := &WindowedCounter{
		subs:   make([]int64, subWindows),
		subDur: window / time.Duration(subWindows),
		now:    time.Now,
	}
	c.curEnd = c.now().Add(c.subDur)
	return c
}

// rotate advances the ring past expired sub-windows; called with c.mu
// held.
func (c *WindowedCounter) rotate() {
	now := c.now()
	if !now.After(c.curEnd) {
		return
	}
	steps := int((now.Sub(c.curEnd) + c.subDur - 1) / c.subDur)
	if steps >= len(c.subs) {
		for i := range c.subs {
			c.subs[i] = 0
		}
		c.agg = 0
		c.curEnd = now.Add(c.subDur)
		return
	}
	for s := 0; s < steps; s++ {
		c.cur = (c.cur + 1) % len(c.subs)
		c.agg -= c.subs[c.cur]
		c.subs[c.cur] = 0
		c.curEnd = c.curEnd.Add(c.subDur)
	}
}

// Add records n events in the current sub-window.
//
//vollint:hotpath
func (c *WindowedCounter) Add(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotate()
	c.subs[c.cur] += n
	c.agg += n
}

// Inc records one event.
//
// Kept: the metrics tests count events with it, the nil-safety test
// included.
//
//vollint:hotpath
func (c *WindowedCounter) Inc() { c.Add(1) }

// Value returns the event count over the window.
func (c *WindowedCounter) Value() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotate()
	return c.agg
}
