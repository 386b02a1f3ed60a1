package wire

import "testing"

// TestHotPathAllocs holds the framing path to zero allocations: framing
// into a buffer with room and refusing an oversize message; the pooled
// buffer's whole life, counted at steady state after AllocsPerRun's
// warm-up call (skipped under the race detector, which drops pooled items
// at random); and its reference counting, nil receivers and the
// over-release panic included. Framing an oversize message through
// NewBuffer is not a row: the append grows a buffer past the limit to
// find it over, and drops it.
func TestHotPathAllocs(t *testing.T) {
	cell := &CellData{Frame: 3, CellID: 9, Payload: make([]byte, 4096), Layers: 2}
	dst := make([]byte, 0, 8192)
	huge := &CellData{Payload: make([]byte, MaxMessageSize)}
	hugeDst := make([]byte, 0, MaxMessageSize+64)
	held, err := NewBuffer(cell)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()
	var nilBuf *Buffer
	spent := new(Buffer) // no reference left: every Release is one too many

	type row struct {
		name string
		pool bool
		// run reports whether the call succeeded; ok is the outcome the
		// row must give, so each row is known to take its branch.
		run func() bool
		ok  bool
	}
	rows := []row{
		{"AppendMessage", false, func() bool { _, err := AppendMessage(dst[:0], cell); return err == nil }, true},
		{"AppendMessage/too-large", false, func() bool { _, err := AppendMessage(hugeDst[:0], huge); return err == nil }, false},
		{"NewBuffer+Release", true, func() bool {
			b, err := NewBuffer(cell)
			b.Release()
			return err == nil
		}, true},
		{"Bytes", false, func() bool { return len(held.Bytes()) > 0 && nilBuf.Bytes() == nil }, true},
		{"Retain+Release", false, func() bool {
			held.Retain(2)
			held.Retain(0)
			held.Release()
			held.Release()
			return held.refs.Load() == 1
		}, true},
		{"Retain+Release/nil", false, func() bool { nilBuf.Retain(1); nilBuf.Release(); return true }, true},
		{"Release/over-release", false, func() (ok bool) {
			defer func() { ok = recover() == nil }()
			spent.Release()
			return true
		}, false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.pool && raceEnabled {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
			if ok := r.run(); ok != r.ok {
				t.Fatalf("%s succeeded = %v, want %v", r.name, ok, r.ok)
			}
			if a := testing.AllocsPerRun(100, func() { r.run() }); a != 0 {
				t.Errorf("%s allocates %v per call, want 0", r.name, a)
			}
		})
	}
}
