package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/obs"
	"volcast/internal/pointcloud"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// A deliberately starved user (link capped at 0.5 Mbps) must blow the
// 33 ms frame budget on every step, and every one of those misses must be
// attributed to the airtime stage — the modeled MAC occupancy is the only
// stage that depends on the link rate, so the attribution is
// deterministic regardless of host speed.
func TestSessionDeadlineAttribution(t *testing.T) {
	video := pointcloud.Stage{Frames: 4, Points: 20_000, Performers: 3, Seed: 1}.Video()
	store, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	study := trace.GenerateStudy(60, 1)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}

	// The tracer is created after the store build, so the trace holds
	// session work only (no build-phase encode spans on these frames).
	tr := obs.New(1 << 14)
	sess, err := NewSession(SessionConfig{
		Users:        2,
		Seconds:      1,
		Mode:         ModeViVo,
		StartQuality: pointcloud.QualityLow,
		Trace:        tr,
		LinkCapMbps:  []float64{0.5, 0}, // starve user 0, leave user 1 alone
	}, map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}, study, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}

	reports := tr.Analyze()
	if len(reports) == 0 {
		t.Fatal("session recorded no frame reports")
	}
	var u0Frames, u0Misses int
	for _, r := range reports {
		if r.User != 0 {
			continue
		}
		u0Frames++
		if !r.Missed {
			continue
		}
		u0Misses++
		if r.Slowest != "airtime" {
			t.Errorf("frame %d user 0 missed on %q (%.1fms), want airtime: %v",
				r.Frame, r.Slowest, r.SlowestMS, r.Stages)
		}
	}
	if u0Frames == 0 {
		t.Fatal("no frame reports for the starved user")
	}
	if u0Misses == 0 {
		t.Fatal("the 0.5 Mbps user never missed the 33ms deadline")
	}

	qoe := tr.QoE()
	var found bool
	for _, row := range qoe {
		if row.User != 0 {
			continue
		}
		found = true
		if row.Misses != u0Misses {
			t.Errorf("QoE misses = %d, Analyze counted %d", row.Misses, u0Misses)
		}
		if row.TopStage != "airtime" {
			t.Errorf("QoE top stage = %q, want airtime", row.TopStage)
		}
	}
	if !found {
		t.Fatal("QoE has no row for user 0")
	}

	// The trace must cover the core per-frame stages for the starved user.
	stages := map[string]bool{}
	for _, r := range reports {
		if r.User != 0 {
			continue
		}
		for s := range r.Stages {
			stages[s] = true
		}
	}
	for _, want := range []string{"cull", "plan", "airtime", "present"} {
		if !stages[want] {
			t.Errorf("user 0 trace misses stage %q (got %v)", want, stages)
		}
	}

	// The dump carries the same verdicts, each naming its stage.
	dump := readDump(t, tr)
	if len(dump.DeadlineMisses) < u0Misses || len(dump.BudgetViolations) == 0 {
		t.Fatalf("dump lists %d deadline misses and %d budget violations, want at least the %d misses of user 0 and one violation",
			len(dump.DeadlineMisses), len(dump.BudgetViolations), u0Misses)
	}
	dump.checkAttributed(t)
}

// TestSessionTraceDump is the trace gate. It runs the session of
// `volsim -trace out.json session -users 2 -seconds 1 -points 20000
// -multicast -decode`, traced from before the store build as volsim
// installs its tracer, and reads the Perfetto dump back: it must parse,
// its complete ("X") spans must cover at least minStages distinct stages
// on every user frame but the first and last (the ring and the end of
// the run may cut those), and it must name the responsible stage of
// every deadline miss and every stage-budget violation. This session
// seldom misses, so TestSessionDeadlineAttribution holds the same
// attribution rule on a dump where every step of its starved user
// misses.
func TestSessionTraceDump(t *testing.T) {
	const minStages = 6
	prev := obs.Default()
	tr := obs.New(1 << 18)
	obs.SetDefault(tr)
	t.Cleanup(func() { obs.SetDefault(prev) })

	video := pointcloud.Stage{Frames: 30, Points: 20_000, Performers: 3, Seed: 1}.Video()
	store, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(SessionConfig{
		Users: 2, Seconds: 1, Mode: ModeMulticast, DecodeClouds: true,
		StartQuality: pointcloud.QualityLow,
	}, map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: store}, trace.GenerateStudy(60, 1), net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}

	dump := readDump(t, tr)

	// Distinct stages per frame, over every track; user frames are those
	// with a span on a user track (pid > 1), the frames a viewer saw.
	frameStages := map[int]map[string]bool{}
	userFrames := map[int]bool{}
	for _, ev := range dump.TraceEvents {
		if ev.Ph != "X" || ev.Args.Frame == nil || *ev.Args.Frame < 0 {
			continue
		}
		f := *ev.Args.Frame
		if frameStages[f] == nil {
			frameStages[f] = map[string]bool{}
		}
		frameStages[f][ev.Name] = true
		if ev.PID > 1 {
			userFrames[f] = true
		}
	}
	first, last := math.MaxInt, -1
	for f := range userFrames {
		first, last = min(first, f), max(last, f)
	}
	checked, fewest := 0, -1
	for f := range userFrames {
		if f == first || f == last {
			continue
		}
		checked++
		n := len(frameStages[f])
		if fewest < 0 || n < fewest {
			fewest = n
		}
		if n < minStages {
			t.Errorf("frame %d covers %d distinct stages, want at least %d: %v", f, n, minStages, frameStages[f])
		}
		// The store build is not session work: its spans sit at frame −1.
		if frameStages[f][obs.StageEncode.String()] {
			t.Errorf("frame %d has an encode span: the store build is charged to a session frame", f)
		}
	}
	if checked == 0 {
		t.Fatalf("trace has %d user frames with spans, none interior: the stage check checks nothing", len(userFrames))
	}

	dump.checkAttributed(t)
	t.Logf("%d user frames (%d checked, fewest %d stages), %d deadline misses, %d budget violations",
		len(userFrames), checked, fewest, len(dump.DeadlineMisses), len(dump.BudgetViolations))
}

// perfettoDump is the part of a Tracer.WritePerfetto dump the trace tests
// read.
type perfettoDump struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		PID  int    `json:"pid"`
		Args struct {
			Frame *int `json:"frame"`
		} `json:"args"`
	} `json:"traceEvents"`
	DeadlineMisses   []obs.FrameReport `json:"deadlineMisses"`
	BudgetViolations []obs.FrameReport `json:"budgetViolations"`
}

// readDump renders tr as Perfetto JSON and parses it back.
func readDump(t *testing.T, tr *obs.Tracer) perfettoDump {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var d perfettoDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("trace dump is not trace_event JSON: %v", err)
	}
	return d
}

// checkAttributed fails t for a deadline miss that names no responsible
// stage, or a budget violation that names no over-budget stage.
func (d perfettoDump) checkAttributed(t *testing.T) {
	t.Helper()
	for _, m := range d.DeadlineMisses {
		if m.Slowest == "" {
			t.Errorf("deadline miss (frame %d, user %d) names no stage", m.Frame, m.User)
		}
	}
	for _, v := range d.BudgetViolations {
		if len(v.OverBudget) == 0 {
			t.Errorf("budget violation (frame %d, user %d) names no over-budget stage", v.Frame, v.User)
		}
	}
}
