package metrics

import (
	"testing"
	"time"
)

// TestHotPathAllocs holds the instruments the frame path updates to zero
// allocations: counters, and the windowed histogram and counter within
// one sub-window, rolling over into the next and after an idle gap that
// clears the whole ring; nil instruments included.
func TestHotPathAllocs(t *testing.T) {
	clk := newFakeClock()
	w := newTestWindowed(clk)
	wc := NewWindowedCounter(10*time.Second, 10)
	wc.now = clk.now
	wc.curEnd = clk.now().Add(wc.subDur)
	var c Counter
	var nilCounter *Counter
	var nilWindowed *Windowed
	var nilWindowedCounter *WindowedCounter

	rows := []struct {
		name string
		// run reports whether the call left the state the row is about;
		// each row must report true.
		run func() bool
	}{
		{"Counter.Add", func() bool { before := c.Value(); c.Add(3); return c.Value() == before+3 }},
		{"Counter.Inc", func() bool { before := c.Value(); c.Inc(); return c.Value() == before+1 }},
		{"Counter/nil", func() bool { nilCounter.Add(2); nilCounter.Inc(); return nilCounter.Value() == 0 }},
		{"Windowed.Observe", func() bool { before := w.Count(); w.Observe(7.5); return w.Count() == before+1 }},
		{"Windowed.Observe/rollover", func() bool {
			cur := w.cur
			clk.advance(w.subDur + 1)
			w.Observe(1e9)
			return w.cur == (cur+1)%len(w.subs)
		}},
		{"Windowed.Observe/idle-gap", func() bool {
			clk.advance(time.Hour)
			w.Observe(0.25)
			return w.Count() == 1
		}},
		{"Windowed/nil", func() bool { nilWindowed.Observe(1); return nilWindowed.Count() == 0 }},
		{"WindowedCounter.Add", func() bool { before := wc.Value(); wc.Add(4); return wc.Value() == before+4 }},
		{"WindowedCounter.Inc/rollover", func() bool {
			cur := wc.cur
			clk.advance(wc.subDur + 1)
			wc.Inc()
			return wc.cur == (cur+1)%len(wc.subs)
		}},
		{"WindowedCounter.Add/idle-gap", func() bool {
			clk.advance(time.Hour)
			wc.Add(2)
			return wc.Value() == 2
		}},
		{"WindowedCounter/nil", func() bool {
			nilWindowedCounter.Add(1)
			nilWindowedCounter.Inc()
			return nilWindowedCounter.Value() == 0
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if !r.run() {
				t.Fatalf("%s did not take its branch", r.name)
			}
			if a := testing.AllocsPerRun(100, func() { r.run() }); a != 0 {
				t.Errorf("%s allocates %v per call, want 0", r.name, a)
			}
		})
	}
}
