package obs

import (
	"testing"
	"time"
)

// TestHotPathAllocs holds the span ring's store to zero allocations in
// the branches TestRecordDoesNotAllocate leaves: a negative duration
// (clamped to zero), a modeled span and a one-span ring that every record
// wraps.
func TestHotPathAllocs(t *testing.T) {
	tr, one := New(64), New(1)
	start := time.Now()
	one.Record(0, 0, StageEncode, start, time.Millisecond) // full: every record wraps
	last := func(t *Tracer) Span { return t.buf[(t.total-1)%uint64(len(t.buf))] }
	rows := []struct {
		name string
		// run reports whether the stored span is the one the row is
		// about; each row must report true.
		run func() bool
	}{
		{"record/negative-duration", func() bool {
			tr.Record(4, 2, StageDecode, start, -time.Millisecond)
			return last(tr).Dur == 0
		}},
		{"record/modeled", func() bool {
			tr.RecordModeled(5, 1, StageSend, time.Millisecond)
			return last(tr).Flags == FlagModeled
		}},
		{"record/wrap", func() bool {
			one.Record(int(one.total), 0, StageEncode, start, time.Millisecond)
			return one.total > 1 && last(one).Frame == int32(one.total-1)
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
