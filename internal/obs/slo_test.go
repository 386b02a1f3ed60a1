package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSLOEngineNil(t *testing.T) {
	var e *SLOEngine
	if e.Evaluate("s", SLOWindow{P99MS: 1000, Frames: 100}) {
		t.Fatal("nil engine must never breach")
	}
	if e.Targets() != (SLOTargets{}) || e.Status() != nil {
		t.Fatal("nil engine must read zero")
	}
	if st := e.State("s"); st.Breached {
		t.Fatal("nil engine State must be healthy")
	}
	e.Forget("s")
}

func TestEventLogNilAndRing(t *testing.T) {
	var l *EventLog
	l.Append(EventJoin, "s", 1, "")
	if l.Snapshot() != nil {
		t.Fatal("nil log must read empty")
	}

	log := NewEventLog(4)
	for i := 0; i < 6; i++ {
		log.Append(EventJoin, "s", i, "")
	}
	evs := log.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("len=%d, want 4", len(evs))
	}
	if evs[0].Seq != 2 || evs[3].Seq != 5 {
		t.Fatalf("ring kept wrong range: %+v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot not oldest-first: %+v", evs)
		}
	}
}

func TestSLOBreachAndRecovery(t *testing.T) {
	log := NewEventLog(16)
	e := NewSLOEngine(SLOTargets{P99MaxMS: 33, MissRateMax: 0.05, MinSamples: 10, RecoverAfter: 2}, log, nil)

	healthy := SLOWindow{P99MS: 10, Frames: 100}
	bad := SLOWindow{P99MS: 80, Frames: 100}

	// Below MinSamples: never evaluated, never breaches.
	if e.Evaluate("a", SLOWindow{P99MS: 500, Frames: 3}) {
		t.Fatal("under-sampled window must not breach")
	}
	if e.Evaluate("a", healthy) {
		t.Fatal("healthy window breached")
	}
	if !e.Evaluate("a", bad) {
		t.Fatal("bad window must breach")
	}
	// Second bad window: still breached, but no second breach event.
	e.Evaluate("a", bad)
	st := e.State("a")
	if !st.Breached || st.Breaches != 1 || st.Reason != "p99" {
		t.Fatalf("State = %+v", st)
	}

	// Hysteresis: one healthy eval is not enough with RecoverAfter=2.
	if !e.Evaluate("a", healthy) {
		t.Fatal("must stay breached after one healthy eval")
	}
	if e.Evaluate("a", healthy) {
		t.Fatal("must recover after RecoverAfter healthy evals")
	}
	st = e.State("a")
	if st.Breached || st.Breaches != 1 {
		t.Fatalf("post-recovery State = %+v", st)
	}

	var breaches, recoveries int
	for _, ev := range log.Snapshot() {
		switch ev.Type {
		case EventBreach:
			breaches++
		case EventRecovery:
			recoveries++
		}
	}
	if breaches != 1 || recoveries != 1 {
		t.Fatalf("events: %d breaches, %d recoveries, want 1/1", breaches, recoveries)
	}
}

func TestSLOMissRateTarget(t *testing.T) {
	e := NewSLOEngine(SLOTargets{MissRateMax: 0.10, MinSamples: 10, RecoverAfter: 1}, nil, nil)
	if e.Evaluate("a", SLOWindow{Frames: 95, Misses: 5}) {
		t.Fatal("5% miss rate breached a 10% target")
	}
	if !e.Evaluate("a", SLOWindow{Frames: 80, Misses: 20}) {
		t.Fatal("20% miss rate must breach a 10% target")
	}
	if e.State("a").Reason != "miss_rate" {
		t.Fatalf("Reason = %q", e.State("a").Reason)
	}
}

func TestSLOStatusSortedAndForget(t *testing.T) {
	e := NewSLOEngine(DefaultSLOTargets(), nil, nil)
	e.Evaluate("b", SLOWindow{P99MS: 1, Frames: 100})
	e.Evaluate("a", SLOWindow{P99MS: 1, Frames: 100})
	sts := e.Status()
	if len(sts) != 2 || sts[0].Scene != "a" || sts[1].Scene != "b" {
		t.Fatalf("Status = %+v", sts)
	}
	e.Forget("a")
	if len(e.Status()) != 1 {
		t.Fatal("Forget must drop the session")
	}
}

func TestSLOBreachTriggersFlightCapture(t *testing.T) {
	dir := t.TempDir()
	tr := New(64)
	tr.Record(1, 0, StageCull, tr.Epoch(), time.Millisecond)
	log := NewEventLog(16)
	fr := NewFlightRecorder(dir, tr, 4, time.Nanosecond)
	e := NewSLOEngine(SLOTargets{P99MaxMS: 33, MinSamples: 1, RecoverAfter: 1}, log, fr)

	e.Evaluate("lobby", SLOWindow{P99MS: 99, Frames: 50})
	if fr.Captured() != 1 {
		t.Fatalf("Captured = %d, want 1", fr.Captured())
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "flight_lobby_*_p99.json"))
	if len(matches) != 1 {
		t.Fatalf("dumps = %v, want one flight_lobby_*_p99.json", matches)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Flight      *FlightInfo       `json:"flight"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Flight == nil || doc.Flight.Scene != "lobby" || doc.Flight.Reason != "p99" {
		t.Fatalf("flight annotation = %+v", doc.Flight)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("dump carried no trace events")
	}
	// The dump path is surfaced on the event log.
	found := false
	for _, ev := range log.Snapshot() {
		if ev.Type == EventBreach && strings.Contains(ev.Detail, "flight dump: ") {
			found = true
		}
	}
	if !found {
		t.Fatal("no flight-dump event recorded")
	}
}
