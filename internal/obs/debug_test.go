package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"volcast/internal/metrics"
)

func debugServer(t *testing.T) (*httptest.Server, *Tracer) {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Counter("test.counter").Add(7)
	tr := New(64)
	tr.Record(0, 0, StageCull, tr.Epoch(), time.Millisecond)
	tr.RecordModeled(0, 0, StageAirtime, 50*time.Millisecond)
	srv := httptest.NewServer(NewDebugMux(DebugConfig{Metrics: reg, Tracer: tr}))
	t.Cleanup(srv.Close)
	return srv, tr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugMetrics(t *testing.T) {
	srv, _ := debugServer(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "test.counter") {
		t.Errorf("GET /metrics = %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics?format=json = %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Errorf("metrics JSON invalid: %v", err)
	}
}

func TestDebugTrace(t *testing.T) {
	srv, _ := debugServer(t)
	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &file); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Error("trace dump holds no events")
	}
	code, body = get(t, srv.URL+"/trace?format=text")
	if code != http.StatusOK || !strings.Contains(body, "MISS") {
		t.Errorf("GET /trace?format=text = %d:\n%s", code, body)
	}
}

func TestDebugQoE(t *testing.T) {
	srv, _ := debugServer(t)
	code, body := get(t, srv.URL+"/qoe")
	if code != http.StatusOK || !strings.Contains(body, "airtime") {
		t.Errorf("GET /qoe = %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL+"/qoe?format=json")
	if code != http.StatusOK {
		t.Fatalf("GET /qoe?format=json = %d", code)
	}
	var rows []UserQoE
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("qoe JSON invalid: %v", err)
	}
	if len(rows) != 1 || rows[0].Misses != 1 {
		t.Errorf("qoe rows = %+v, want one user with one miss", rows)
	}
	// With no tracer, or a tracer with no user rows yet, the JSON form is
	// an empty list like /sessions and /events, never null.
	for name, cfg := range map[string]DebugConfig{"nil": {}, "empty": {Tracer: New(16)}} {
		srv := httptest.NewServer(NewDebugMux(cfg))
		code, body := get(t, srv.URL+"/qoe?format=json")
		srv.Close()
		if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
			t.Errorf("%s tracer: GET /qoe?format=json = %d: %q, want []", name, code, body)
		}
	}
}

func TestDebugPprofAndIndex(t *testing.T) {
	srv, _ := debugServer(t)
	if code, _ := get(t, srv.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d", code)
	}
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "/trace") {
		t.Errorf("GET / = %d:\n%s", code, body)
	}
	if code, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", code)
	}
}

func TestDebugSLOPlaneEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("hub.session.lobby.frames").Add(3)
	log := NewEventLog(16)
	log.Append(EventJoin, "lobby", 1, "client 9")
	eng := NewSLOEngine(SLOTargets{P99MaxMS: 33, MinSamples: 1, RecoverAfter: 1}, log, nil)
	eng.Evaluate("lobby", SLOWindow{P99MS: 99, Frames: 50})
	srv := httptest.NewServer(NewDebugMux(DebugConfig{
		Metrics: reg,
		Tracer:  New(16),
		Events:  log,
		SLO:     eng,
		Sessions: func() []SessionInfo {
			return []SessionInfo{{
				Scene: "lobby", Subscribers: 2, Frames: 3,
				WindowFrames: 50, P99MS: 99, SLOBreached: true, SLOBreaches: 1,
			}}
		},
	}))
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+"/metrics/prom")
	if code != http.StatusOK || !strings.Contains(body, `hub_session_frames_total{scene="lobby"} 3`) {
		t.Errorf("GET /metrics/prom = %d:\n%s", code, body)
	}

	code, body = get(t, srv.URL+"/sessions")
	if code != http.StatusOK || !strings.Contains(body, "lobby") || !strings.Contains(body, "BREACH") {
		t.Errorf("GET /sessions = %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL+"/sessions?format=json")
	var rows []SessionInfo
	if code != http.StatusOK || json.Unmarshal([]byte(body), &rows) != nil ||
		len(rows) != 1 || rows[0].Scene != "lobby" || !rows[0].SLOBreached {
		t.Errorf("GET /sessions?format=json = %d:\n%s", code, body)
	}

	code, body = get(t, srv.URL+"/slo")
	if code != http.StatusOK || !strings.Contains(body, "BREACHED") || !strings.Contains(body, "p99<=33ms") {
		t.Errorf("GET /slo = %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL+"/slo?format=json")
	var slo struct {
		Targets  SLOTargets  `json:"targets"`
		Sessions []SLOStatus `json:"sessions"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &slo) != nil ||
		slo.Targets.P99MaxMS != 33 || len(slo.Sessions) != 1 || !slo.Sessions[0].Breached {
		t.Errorf("GET /slo?format=json = %d:\n%s", code, body)
	}

	code, body = get(t, srv.URL+"/events")
	if code != http.StatusOK || !strings.Contains(body, "join") || !strings.Contains(body, "slo_breach") {
		t.Errorf("GET /events = %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL+"/events?format=json")
	var evs []Event
	if code != http.StatusOK || json.Unmarshal([]byte(body), &evs) != nil || len(evs) < 2 {
		t.Errorf("GET /events?format=json = %d:\n%s", code, body)
	}
}

func TestDebugSLOPlaneDisabled(t *testing.T) {
	// Without Sessions/SLO/Events wired, the endpoints degrade gracefully.
	srv, _ := debugServer(t)
	if code, body := get(t, srv.URL+"/sessions?format=json"); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("GET /sessions = %d: %q", code, body)
	}
	if code, body := get(t, srv.URL+"/slo"); code != http.StatusOK || !strings.Contains(body, "disabled") {
		t.Errorf("GET /slo = %d: %q", code, body)
	}
	if code, body := get(t, srv.URL+"/events?format=json"); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("GET /events = %d: %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/metrics/prom"); code != http.StatusOK {
		t.Errorf("GET /metrics/prom = %d", code)
	}
}
