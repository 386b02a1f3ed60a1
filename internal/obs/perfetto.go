package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// perfettoEvent is one Chrome trace_event. "X" events are complete spans,
// "M" events are process/thread metadata, "i" events are instants.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds since epoch
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoFile is the JSON object form of the trace_event format: the
// span list plus our machine-readable deadline attribution alongside it
// (chrome://tracing and ui.perfetto.dev ignore unknown top-level keys).
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	DeadlineMS      float64         `json:"deadlineMs"`
	DeadlineMisses  []FrameReport   `json:"deadlineMisses"`
	// StageBudgetsMS is the per-stage budget table the trace was judged
	// against; BudgetViolations lists every (frame,user) with at least one
	// stage over its budget (a superset of deadlineMisses in practice —
	// budgets warn before the frame deadline breaks).
	StageBudgetsMS   map[string]float64 `json:"stageBudgetsMs"`
	BudgetViolations []FrameReport      `json:"budgetViolations"`
}

// perfettoPID maps a span's user to a trace process id: pid 1 is the
// shared pipeline track, users map to pid 2+u.
func perfettoPID(user int32) int {
	if user < 0 {
		return 1
	}
	return 2 + int(user)
}

// WritePerfetto dumps the held spans as Chrome/Perfetto trace_event JSON:
// one trace process per user (plus a shared "pipeline" process for
// frame-global work), one thread per stage, span args carrying the frame
// number and the modeled flag. Deadline-missed frames additionally emit
// an instant event on the responsible stage's track and appear in the
// top-level deadlineMisses list with their full attribution.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte(`{"traceEvents":[],"displayTimeUnit":"ms","deadlineMs":0,"deadlineMisses":[],"stageBudgetsMs":{},"budgetViolations":[]}` + "\n"))
		return err
	}
	spans := t.Snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	reports := t.Analyze()

	file := perfettoFile{
		DisplayTimeUnit:  "ms",
		DeadlineMS:       float64(DefaultDeadline) / float64(time.Millisecond),
		DeadlineMisses:   []FrameReport{},
		StageBudgetsMS:   map[string]float64{},
		BudgetViolations: []FrameReport{},
	}
	for s := Stage(0); s < numStages; s++ {
		if b := t.StageBudget(s); b > 0 {
			file.StageBudgetsMS[s.String()] = float64(b) / float64(time.Millisecond)
		}
	}
	us := func(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

	// Metadata: name each seen (process, thread) pair once.
	seenPID := map[int]bool{}
	seenTID := map[[2]int]bool{}
	meta := func(user int32, stage Stage) {
		pid, tid := perfettoPID(user), int(stage)+1
		if !seenPID[pid] {
			seenPID[pid] = true
			name := "pipeline"
			if user >= 0 {
				name = fmt.Sprintf("user %d", user)
			}
			file.TraceEvents = append(file.TraceEvents, perfettoEvent{
				Name: "process_name", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": name},
			})
		}
		key := [2]int{pid, tid}
		if !seenTID[key] {
			seenTID[key] = true
			file.TraceEvents = append(file.TraceEvents, perfettoEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": stage.String()},
			})
		}
	}

	lastEnd := map[frameKey]int64{} // (frame,user) -> latest span end, for miss instants
	for _, sp := range spans {
		meta(sp.User, sp.Stage)
		args := map[string]any{"frame": int(sp.Frame)}
		if sp.Flags&FlagModeled != 0 {
			args["modeled"] = true
		}
		file.TraceEvents = append(file.TraceEvents, perfettoEvent{
			Name: sp.Stage.String(), Ph: "X",
			TS: us(sp.Start), Dur: us(sp.Dur),
			PID: perfettoPID(sp.User), TID: int(sp.Stage) + 1,
			Args: args,
		})
		k := frameKey{sp.Frame, sp.User}
		if end := sp.Start + sp.Dur; end > lastEnd[k] {
			lastEnd[k] = end
		}
	}
	for _, r := range reports {
		if len(r.OverBudget) > 0 {
			file.BudgetViolations = append(file.BudgetViolations, r)
		}
		if !r.Missed {
			continue
		}
		file.DeadlineMisses = append(file.DeadlineMisses, r)
		// Instant marker on the responsible stage's track, at the frame's
		// last span end (or epoch when the frame's spans were evicted).
		ts := lastEnd[frameKey{int32(r.Frame), int32(r.User)}]
		var stage Stage
		for s := Stage(0); s < numStages; s++ {
			if s.String() == r.Slowest {
				stage = s
				break
			}
		}
		file.TraceEvents = append(file.TraceEvents, perfettoEvent{
			Name: fmt.Sprintf("deadline miss: %s %.1fms/%.0fms", r.Slowest, r.TotalMS, r.DeadlineMS),
			Ph:   "i", Scope: "t",
			TS:  us(ts),
			PID: perfettoPID(int32(r.User)), TID: int(stage) + 1,
			Args: map[string]any{"frame": r.Frame, "slowest": r.Slowest, "total_ms": r.TotalMS},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
