package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.Record(1, 2, StageEncode, time.Now(), time.Millisecond)
	tr.RecordModeled(1, 2, StageAirtime, time.Millisecond)
	tr.Begin(1, 2, StagePlan).End()
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Errorf("nil tracer holds spans: len=%d total=%d", tr.Len(), tr.Total())
	}
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil Snapshot() = %v, want nil", got)
	}
	if got := tr.Analyze(); got != nil {
		t.Errorf("nil Analyze() = %v, want nil", got)
	}
	if got := tr.QoE(); got != nil {
		t.Errorf("nil QoE() = %v, want nil", got)
	}
	if err := tr.WriteTimeline(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteTimeline: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatalf("nil WritePerfetto: %v", err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil WritePerfetto output is not JSON: %v", err)
	}
}

// The disabled-tracing hot path must not allocate: Begin/End on a nil
// tracer is the per-frame cost every instrumented layer pays by default.
func TestNilTracerBeginEndAllocs(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		tr.Begin(3, 1, StageEncode).End()
	}); n != 0 {
		t.Errorf("nil Begin/End allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(3, 1, StageEncode, time.Time{}, time.Millisecond)
	}); n != 0 {
		t.Errorf("nil Record allocates %.1f per op, want 0", n)
	}
}

// A live tracer's record path writes into the preallocated ring and must
// not allocate either.
func TestRecordDoesNotAllocate(t *testing.T) {
	tr := New(64)
	start := time.Now()
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(3, 1, StageEncode, start, time.Millisecond)
	}); n != 0 {
		t.Errorf("Record allocates %.1f per op, want 0", n)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Record(i, 0, StageEncode, tr.Epoch().Add(time.Duration(i)*time.Millisecond), time.Millisecond)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("Total() = %d, want 10", tr.Total())
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("Snapshot() holds %d, want 4", len(spans))
	}
	// Oldest-first: frames 6,7,8,9 survive.
	for i, sp := range spans {
		if want := int32(6 + i); sp.Frame != want {
			t.Errorf("spans[%d].Frame = %d, want %d", i, sp.Frame, want)
		}
	}
}

func TestSnapshotBeforeWrap(t *testing.T) {
	tr := New(8)
	tr.Record(0, 0, StageCull, tr.Epoch(), time.Millisecond)
	tr.Record(1, 0, StagePlan, tr.Epoch(), time.Millisecond)
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("Snapshot() holds %d, want 2", len(spans))
	}
	if spans[0].Stage != StageCull || spans[1].Stage != StagePlan {
		t.Errorf("snapshot order wrong: %v", spans)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(i, g, Stage(i%int(numStages)), time.Now(), time.Microsecond)
				tr.Begin(i, g, StageDecode).End()
				if i%10 == 0 {
					tr.Snapshot()
					tr.Analyze()
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Total() != 8*200 {
		t.Errorf("Total() = %d, want %d", tr.Total(), 8*200)
	}
}

func TestAnalyzeAttribution(t *testing.T) {
	tr := New(64)
	base := tr.Epoch()
	// Frame 5, user 0: 2ms cull + 40ms modeled airtime -> miss on airtime.
	tr.Record(5, 0, StageCull, base, 2*time.Millisecond)
	tr.RecordModeled(5, 0, StageAirtime, 40*time.Millisecond)
	// Frame 5, user 1: 1ms cull only -> within budget.
	tr.Record(5, 1, StageCull, base, time.Millisecond)
	// Frame 5 global plan span: charged to both users.
	tr.Record(5, PipelineUser, StagePlan, base, 3*time.Millisecond)
	// Frame-less span (cache fill) must not show up.
	tr.Record(-1, PipelineUser, StageCache, base, 100*time.Millisecond)

	reports := tr.Analyze()
	if len(reports) != 2 {
		t.Fatalf("Analyze() returned %d reports, want 2: %+v", len(reports), reports)
	}
	r0, r1 := reports[0], reports[1]
	if r0.User != 0 || r1.User != 1 {
		t.Fatalf("report order: %+v", reports)
	}
	if !r0.Missed || r0.Slowest != "airtime" {
		t.Errorf("user 0: missed=%v slowest=%q, want miss on airtime", r0.Missed, r0.Slowest)
	}
	if want := 2.0 + 40 + 3; r0.TotalMS != want {
		t.Errorf("user 0 TotalMS = %v, want %v", r0.TotalMS, want)
	}
	if r0.Stages["plan"] != 3 {
		t.Errorf("user 0 plan share = %v, want 3 (global span charged)", r0.Stages["plan"])
	}
	if r1.Missed {
		t.Errorf("user 1 missed with %vms total", r1.TotalMS)
	}
	if r1.TotalMS != 1.0+3 {
		t.Errorf("user 1 TotalMS = %v, want 4", r1.TotalMS)
	}

	qoe := tr.QoE()
	if len(qoe) != 2 {
		t.Fatalf("QoE() returned %d rows, want 2", len(qoe))
	}
	if qoe[0].Misses != 1 || qoe[0].TopStage != "airtime" {
		t.Errorf("user 0 QoE = %+v, want 1 miss on airtime", qoe[0])
	}
	if qoe[1].Misses != 0 || qoe[1].TopStage != "" {
		t.Errorf("user 1 QoE = %+v, want clean", qoe[1])
	}
}

func TestTimelineMarksMisses(t *testing.T) {
	tr := New(64)
	tr.RecordModeled(2, 0, StageAirtime, 50*time.Millisecond)
	tr.Record(3, 0, StageCull, tr.Epoch(), time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "MISS slowest=airtime") {
		t.Errorf("timeline misses the MISS marker:\n%s", out)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("timeline misses the ok frame:\n%s", out)
	}
}

func TestPerfettoValidity(t *testing.T) {
	tr := New(64)
	tr.Record(0, 0, StageCull, tr.Epoch(), time.Millisecond)
	tr.Record(0, PipelineUser, StagePlan, tr.Epoch(), 2*time.Millisecond)
	tr.RecordModeled(0, 0, StageAirtime, 45*time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DeadlineMS     float64       `json:"deadlineMs"`
		DeadlineMisses []FrameReport `json:"deadlineMisses"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if file.DeadlineMS != 33 {
		t.Errorf("deadlineMs = %v, want 33", file.DeadlineMS)
	}
	var complete, modeled int
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Name == "" {
				t.Errorf("unnamed X event: %+v", ev)
			}
			if ev.Args["frame"] == nil {
				t.Errorf("X event without frame arg: %+v", ev)
			}
			if ev.Args["modeled"] == true {
				modeled++
			}
		case "M", "i":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 3 {
		t.Errorf("%d X events, want 3", complete)
	}
	if modeled != 1 {
		t.Errorf("%d modeled spans, want 1 (the airtime span)", modeled)
	}
	if len(file.DeadlineMisses) != 1 {
		t.Fatalf("%d deadline misses, want 1", len(file.DeadlineMisses))
	}
	if m := file.DeadlineMisses[0]; m.Slowest != "airtime" || !m.Missed {
		t.Errorf("miss report = %+v, want airtime attribution", m)
	}
}

func TestSetDeadline(t *testing.T) {
	tr := New(16)
	tr.Record(0, 0, StageDecode, tr.Epoch(), 40*time.Millisecond)
	reports := tr.Analyze()
	if len(reports) != 1 || !reports[0].Missed {
		t.Fatalf("40ms frame under the 33ms deadline should miss: %+v", reports)
	}
}

func TestDefaultTracer(t *testing.T) {
	if Default() != nil {
		t.Fatal("tracing must be disabled by default")
	}
	tr := New(16)
	SetDefault(tr)
	defer SetDefault(nil)
	if Default() != tr {
		t.Error("SetDefault did not install the tracer")
	}
	Default().Record(0, 0, StageEncode, time.Now(), time.Millisecond)
	if tr.Len() != 1 {
		t.Errorf("span did not land in the default tracer")
	}
}
