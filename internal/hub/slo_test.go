package hub

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/wire"
)

// TestSLOBreachFlightAndEvents drives the whole SLO plane end to end: a
// subscriber that never drains its socket makes the session miss frame
// deliveries, the windowed miss rate trips the SLO, the breach lands on
// the event log with a flight dump on disk — while a healthy session on
// the same hub stays clean.
func TestSLOBreachFlightAndEvents(t *testing.T) {
	snap := leakcheck.Take()
	flightDir := t.TempDir()
	reg := metrics.NewRegistry()
	tracer := obs.New(1 << 12)
	events := obs.NewEventLog(256)
	flight := obs.NewFlightRecorder(flightDir, tracer, 4, time.Hour)
	engine := obs.NewSLOEngine(obs.SLOTargets{
		P99MaxMS:    33,
		MissRateMax: 0.05,
		MinSamples:  5,
		// Effectively never recover, so the run produces exactly one
		// breach transition (and so exactly one dump).
		RecoverAfter: 1 << 30,
	}, events, flight)

	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, IdleTimeout: -1,
		ReapAfter: -1,
		// High frame rate so the stalled connection's kernel buffers jam
		// within a couple of seconds instead of tens.
		FPS:     120,
		Metrics: reg, Trace: tracer,
		Events: events, SLO: engine, SLOEvery: 50 * time.Millisecond,
		// A smallish queue plus a never-reading client means the stalled
		// connection's FrameComplete enqueues start failing within a few
		// frames, while the draining client never gets close to full.
		QueueDepth: 256, SlowClientFrames: -1,
	})

	// Scene 1: a stalled subscriber — a tiny receive buffer, a handshake,
	// then silence, so the server's writes jam almost immediately.
	stalled, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.(*net.TCPConn).SetReadBuffer(512)
	if err := wire.WriteMessage(stalled, &wire.Hello{ClientID: 1, Name: "stall", Scene: 1}); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	if msg, err := wire.ReadMessage(stalled); err != nil {
		t.Fatalf("welcome: %v", err)
	} else if _, ok := msg.(*wire.Welcome); !ok {
		t.Fatalf("expected Welcome, got %v", msg.Type())
	}
	// Scene 2: a healthy subscriber draining everything.
	healthy := rawJoin(t, addr, 2, 2)
	defer healthy.Close()
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		io.Copy(io.Discard, healthy)
	}()

	waitFor(t, "SLO breach on scene 1", 15*time.Second, func() bool {
		return engine.State("1").Breached
	})
	// The flight capture is a post-transition side effect; give it its
	// own wait instead of racing the state flip.
	waitFor(t, "flight dump", 5*time.Second, func() bool {
		dumps, _ := filepath.Glob(filepath.Join(flightDir, "flight_*.json"))
		return flight.Captured() == 1 && len(dumps) == 1
	})

	st := engine.State("1")
	if st.Breaches != 1 || st.Reason == "" {
		t.Errorf("scene 1 state = %+v, want exactly one breach with a reason", st)
	}
	if hs := engine.State("2"); hs.Breached || hs.Breaches != 0 {
		t.Errorf("healthy scene 2 breached: %+v", hs)
	}

	var breaches1, breaches2 int
	for _, ev := range events.Snapshot() {
		if ev.Type == obs.EventBreach {
			switch ev.Scene {
			case "1":
				breaches1++
			case "2":
				breaches2++
			}
		}
	}
	if breaches1 == 0 {
		t.Error("no slo_breach event for scene 1 on the event log")
	}
	if breaches2 != 0 {
		t.Errorf("%d slo_breach events for healthy scene 2, want 0", breaches2)
	}

	dumps, _ := filepath.Glob(filepath.Join(flightDir, "flight_*.json"))
	if len(dumps) != 1 {
		t.Fatalf("flight dumps = %v, want exactly one", dumps)
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Flight *obs.FlightInfo `json:"flight"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	if doc.Flight == nil || doc.Flight.Scene != "1" {
		t.Fatalf("flight annotation = %+v", doc.Flight)
	}

	// The windowed instruments behind the breach are live on /sessions.
	infos := h.SessionInfos()
	if len(infos) != 2 {
		t.Fatalf("SessionInfos = %d rows, want 2", len(infos))
	}
	if infos[0].Scene != "1" || !infos[0].SLOBreached || infos[0].WindowMisses == 0 {
		t.Errorf("scene 1 info = %+v", infos[0])
	}
	if infos[1].Scene != "2" || infos[1].SLOBreached {
		t.Errorf("scene 2 info = %+v", infos[1])
	}

	stalled.Close()
	healthy.Close()
	<-drainDone
	h.Shutdown()
	snap.Check(t)
}

// TestHubLifecycleEvents checks join/leave/reconnect emission.
func TestHubLifecycleEvents(t *testing.T) {
	snap := leakcheck.Take()
	events := obs.NewEventLog(64)
	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Events: events,
	})

	conn := rawJoin(t, addr, 7, 3)
	waitFor(t, "join event", 5*time.Second, func() bool {
		for _, ev := range events.Snapshot() {
			if ev.Type == obs.EventJoin && ev.Scene == "3" {
				return true
			}
		}
		return false
	})
	conn.Close()
	waitFor(t, "leave event", 5*time.Second, func() bool {
		for _, ev := range events.Snapshot() {
			if ev.Type == obs.EventLeave && ev.Scene == "3" {
				return true
			}
		}
		return false
	})

	// Same (scene, client) pair again: a reconnect, not a join.
	conn2 := rawJoin(t, addr, 7, 3)
	waitFor(t, "reconnect event", 5*time.Second, func() bool {
		for _, ev := range events.Snapshot() {
			if ev.Type == obs.EventReconnect && ev.Scene == "3" {
				return true
			}
		}
		return false
	})
	conn2.Close()
	h.Shutdown()
	snap.Check(t)
}

// TestReapForgetsSceneState: scene churn must not grow the hub. Fresh
// scenes, each joined, rejoined before the reap (still a reconnect) and
// left, end with no subscriber label, no seen-client pair and no
// hub.session.* instrument once the reaper has claimed them; a scene
// joined again after its reap starts over, instruments included.
func TestReapForgetsSceneState(t *testing.T) {
	snap := leakcheck.Take()
	reg := metrics.NewRegistry()
	events := obs.NewEventLog(256)
	// The encode tier on a registry of its own, warmed with no session (a
	// build that misses, then one that hits): it holds the tier-global
	// counters and nothing else, which is where the churn must leave it.
	tierReg := metrics.NewRegistry()
	tier := blockcache.New("encode", 64<<20, tierReg)
	for i := 0; i < 2; i++ {
		if _, err := testFactory(nil)(0, blockcache.BlockCacheOn(tier)); err != nil {
			t.Fatal(err)
		}
	}
	tierInstruments := func() int {
		s := tierReg.Snapshot()
		return len(s.Counters) + len(s.Histograms) + len(s.Windows) + len(s.WindowCounters)
	}
	preChurn := tierInstruments()
	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, EncodeTier: tier,
		ReapAfter: 250 * time.Millisecond, Metrics: reg, Events: events,
	})
	// The text dump names every instrument of every kind.
	holdsSessionKeys := func() bool { return strings.Contains(reg.String(), "hub.session.") }
	count := func(typ string) (n int) {
		for _, ev := range events.Snapshot() {
			if ev.Type == typ {
				n++
			}
		}
		return n
	}

	const scenes = 6
	for scene := uint32(0); scene < scenes; scene++ {
		rawJoin(t, addr, 1, scene).Close()
		conn := rawJoin(t, addr, 1, scene)
		if got := count(obs.EventReconnect); got != int(scene)+1 {
			t.Fatalf("scene %d: %d reconnect events after a rejoin before the reap, want %d", scene, got, scene+1)
		}
		conn.Close()
	}
	if !holdsSessionKeys() {
		t.Fatal("live scenes registered no hub.session.* instrument: the test checks nothing")
	}
	if tierInstruments() <= preChurn {
		t.Fatal("live scenes registered no blockcache.encode.session.* counter: the test checks nothing")
	}
	waitFor(t, "every scene reaped", 10*time.Second, func() bool {
		return reg.Snapshot().Counters["hub.sessions.reaped"] == scenes
	})
	h.mu.Lock()
	labels, seen := len(h.subLabels), len(h.seenClients)
	h.mu.Unlock()
	if labels != 0 || seen != 0 {
		t.Errorf("after the reaps: %d subscriber labels, %d seen-client pairs, want 0 and 0", labels, seen)
	}
	if holdsSessionKeys() {
		t.Errorf("after the reaps the registry still holds hub.session.* instruments:\n%s", reg)
	}
	if got := tierInstruments(); got != preChurn {
		t.Errorf("after the reaps the tier registry holds %d instruments, %d before the churn:\n%s", got, preChurn, tierReg)
	}

	// A reaped scene starts over: a join, not a reconnect, and a fresh set
	// of instruments.
	conn := rawJoin(t, addr, 1, 0)
	if joins, reconnects := count(obs.EventJoin), count(obs.EventReconnect); joins != scenes+1 || reconnects != scenes {
		t.Errorf("after rejoining a reaped scene: %d joins, %d reconnects, want %d and %d", joins, reconnects, scenes+1, scenes)
	}
	if _, ok := reg.Snapshot().Counters["hub.session.0.frames"]; !ok {
		t.Error("the rebuilt scene has no hub.session.0.frames counter")
	}
	conn.Close()
	h.Shutdown()
	snap.Check(t)
}
