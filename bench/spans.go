package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the layer ladder. Spans nest: parent is
// the index of the enclosing span, -1 at the top. All spans of one ladder
// frame share its frame id; -1 marks work done once for the whole pass.
type span struct {
	name       string
	frame      int
	parent     int
	start, end time.Duration
	mallocs    uint64
}

// recorder keeps the ladder's spans in memory. Off, every call is a
// branch and nothing else, which is what the on/off comparison measures.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
	// skew is the time spent inside the recorder's own MemStats reads,
	// subtracted from the clock so no span is charged for them.
	skew time.Duration
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), spans: make([]span, 0, 4096), open: make([]int, 0, 8)}
}

func (r *recorder) clock() time.Duration { return time.Since(r.t0) - r.skew }

func (r *recorder) mallocs() uint64 {
	t := time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.skew += time.Since(t)
	return m.Mallocs
}

// begin opens a span under the innermost open one; end closes it.
func (r *recorder) begin(name string, frame int) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	m := r.mallocs()
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, frame: frame, parent: parent, mallocs: m})
	r.open = append(r.open, id)
	r.spans[id].start = r.clock()
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	s := &r.spans[id]
	s.end = r.clock()
	s.mallocs = r.mallocs() - s.mallocs
	r.open = r.open[:len(r.open)-1]
}

// stageRow is one line of the stage-decomposition table.
type stageRow struct {
	name          string
	calls         int
	medianMS      float64
	selfMS        float64 // summed self time
	allocsPerCall float64
}

// decompose folds spans into per-name rows. A span's self time is its
// duration minus the time its direct children cover.
func decompose(spans []span) []stageRow {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	type acc struct {
		durs    []float64
		self    time.Duration
		mallocs uint64
	}
	by := map[string]*acc{}
	var order []string
	for i, s := range spans {
		// A stage nested inside another stage is a row of its own, named
		// by its path ("decode>cache"): the same layer entered from two
		// places is two costs.
		name := s.name
		if s.parent >= 0 && spans[s.parent].name != "frame" {
			name = spans[s.parent].name + ">" + name
		}
		a := by[name]
		if a == nil {
			a = &acc{}
			by[name] = a
			order = append(order, name)
		}
		a.durs = append(a.durs, ms(s.end-s.start))
		a.self += s.end - s.start - child[i]
		a.mallocs += s.mallocs
	}
	rows := make([]stageRow, 0, len(order))
	for _, name := range order {
		a := by[name]
		rows = append(rows, stageRow{
			name: name, calls: len(a.durs), medianMS: median(a.durs),
			selfMS: ms(a.self), allocsPerCall: float64(a.mallocs) / float64(len(a.durs)),
		})
	}
	return rows
}

// printDecomposition writes the table: stage, calls, median, self time
// per ladder frame, share of all self time, allocations per call. Child
// spans' allocations are included in their parents' (allocs nest; self
// time does not).
func printDecomposition(w io.Writer, title string, rows []stageRow, frames int) {
	var total float64
	for _, r := range rows {
		total += r.selfMS
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- stage decomposition: %s (%d ladder frames)\n", title, frames)
	fmt.Fprintf(&b, "  %-16s %7s %12s %14s %7s %12s\n", "stage", "calls", "median ms", "self ms/frame", "share", "allocs/call")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-16s %7d %12.4f %14.4f %6.1f%% %12.1f\n",
			r.name, r.calls, r.medianMS, r.selfMS/float64(frames), 100*r.selfMS/total, r.allocsPerCall)
	}
	fmt.Fprint(w, b.String())
}

// writeTraceEvents writes spans as Chrome/Perfetto trace_event JSON:
// complete ("X") events in microseconds, one track per ladder frame.
func writeTraceEvents(w io.Writer, process string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: s.frame + 1,
			Args: map[string]any{"id": i, "parent_id": s.parent, "parent": parent, "frame": s.frame, "mallocs": s.mallocs},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"process": process},
		"traceEvents":     events,
	})
}
