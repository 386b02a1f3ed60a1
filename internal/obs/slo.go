package obs

import (
	"fmt"
	"sort"
	"sync"
)

// SLO engine: declarative per-session service-level targets evaluated
// against the sliding-window readouts the hub publishes every tick. The
// engine is a state machine per session — healthy ⇄ breached — with
// hysteresis on recovery, and it is the component that turns a tail
// regression into evidence: each healthy→breached transition emits a
// structured event and asks the flight recorder to snapshot the tracer
// ring covering the breach window.

// SLOTargets are the declarative per-window targets a session must meet.
// Zero-valued fields disable that check.
type SLOTargets struct {
	// P99MaxMS breaches when the windowed p99 frame latency exceeds it.
	P99MaxMS float64 `json:"p99_max_ms"`
	// MissRateMax breaches when misses/frames over the window exceeds
	// it (0..1).
	MissRateMax float64 `json:"miss_rate_max"`
	// MinSamples gates evaluation: windows with fewer frames are
	// skipped, so idle or just-started sessions never breach on noise.
	MinSamples int64 `json:"min_samples"`
	// RecoverAfter is the hysteresis: a breached session must pass this
	// many consecutive evaluations before it transitions back to
	// healthy (<=0 means 1).
	RecoverAfter int `json:"recover_after"`
}

// DefaultSLOTargets: the paper's 33 ms motion-to-photon budget at p99,
// and at most 5% missed frames per window.
//
// Kept: the SLO tests run the engine at these targets.
func DefaultSLOTargets() SLOTargets {
	return SLOTargets{P99MaxMS: 33, MissRateMax: 0.05, MinSamples: 30, RecoverAfter: 3}
}

// SLOWindow is one session's windowed readout handed to Evaluate.
type SLOWindow struct {
	// P99MS is the windowed p99 frame latency in milliseconds.
	P99MS float64 `json:"p99_ms"`
	// Frames is the number of frame deliveries in the window.
	Frames int64 `json:"frames"`
	// Misses is the number of missed deliveries (late or dropped).
	Misses int64 `json:"misses"`
}

// missRate returns misses/frames over the window (misses are counted on
// top of delivered frames).
func (w SLOWindow) missRate() float64 {
	total := w.Frames + w.Misses
	if total == 0 {
		return 0
	}
	return float64(w.Misses) / float64(total)
}

// SLOStatus is one session's current SLO state for /slo.
type SLOStatus struct {
	Scene    string `json:"scene"`
	Breached bool   `json:"breached"`
	// Reason is what tripped the breach ("p99", "miss_rate"), empty
	// while healthy.
	Reason string `json:"reason,omitempty"`
	// Breaches counts healthy→breached transitions since the session
	// appeared.
	Breaches int64 `json:"breaches"`
	// Evals counts windows actually evaluated (>= MinSamples frames).
	Evals int64 `json:"evals"`
	// Window is the most recent readout evaluated.
	Window SLOWindow `json:"window"`
}

// sloState is the per-session state machine.
type sloState struct {
	breached bool
	reason   string
	breaches int64
	evals    int64
	healthy  int // consecutive healthy evals while breached
	last     SLOWindow
	window   int64 // evaluation tick of the last breach
}

// SLOEngine evaluates targets per session and drives the event log and
// flight recorder on transitions. Safe for concurrent use; a nil
// *SLOEngine evaluates nothing.
type SLOEngine struct {
	mu      sync.Mutex
	targets SLOTargets
	states  map[string]*sloState
	tick    int64 // evaluation rounds, labels flight dumps

	events *EventLog
	flight *FlightRecorder
}

// NewSLOEngine returns an engine enforcing targets, emitting transitions
// to events and breach captures to flight (either may be nil).
func NewSLOEngine(targets SLOTargets, events *EventLog, flight *FlightRecorder) *SLOEngine {
	if targets.RecoverAfter <= 0 {
		targets.RecoverAfter = 1
	}
	return &SLOEngine{
		targets: targets,
		states:  map[string]*sloState{},
		events:  events,
		flight:  flight,
	}
}

// Targets returns the engine's configured targets.
func (e *SLOEngine) Targets() SLOTargets {
	if e == nil {
		return SLOTargets{}
	}
	return e.targets
}

// check returns the first violated target's name, or "".
func (e *SLOEngine) check(w SLOWindow) string {
	if e.targets.P99MaxMS > 0 && w.P99MS > e.targets.P99MaxMS {
		return "p99"
	}
	if e.targets.MissRateMax > 0 && w.missRate() > e.targets.MissRateMax {
		return "miss_rate"
	}
	return ""
}

// Evaluate feeds one session's windowed readout into the state machine.
// Transitions emit events, and a healthy→breached transition triggers a
// flight-recorder capture; both happen outside the engine lock. Returns
// true when the session is breached after this evaluation.
func (e *SLOEngine) Evaluate(scene string, w SLOWindow) bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	st, ok := e.states[scene]
	if !ok {
		st = &sloState{}
		e.states[scene] = st
	}
	st.last = w
	if w.Frames+w.Misses < e.targets.MinSamples {
		breached := st.breached
		e.mu.Unlock()
		return breached
	}
	e.tick++
	st.evals++
	reason := e.check(w)
	var transition string // "", EventBreach or EventRecovery
	var detail string
	var window int64
	switch {
	case reason != "" && !st.breached:
		st.breached, st.reason = true, reason
		st.breaches++
		st.healthy = 0
		st.window = e.tick
		transition = EventBreach
		detail = fmt.Sprintf("%s: p99=%.1fms frames=%d misses=%d (targets p99<=%.0fms miss<=%.0f%%)",
			reason, w.P99MS, w.Frames, w.Misses,
			e.targets.P99MaxMS, e.targets.MissRateMax*100)
		window = st.window
	case reason != "" && st.breached:
		st.reason = reason
		st.healthy = 0
	case reason == "" && st.breached:
		st.healthy++
		if st.healthy >= e.targets.RecoverAfter {
			st.breached, st.reason, st.healthy = false, "", 0
			transition = EventRecovery
			detail = fmt.Sprintf("p99=%.1fms frames=%d misses=%d", w.P99MS, w.Frames, w.Misses)
		}
	}
	breached := st.breached
	events, flight := e.events, e.flight
	e.mu.Unlock()

	// Side effects outside the lock: the event log has its own lock and
	// the flight recorder does file I/O.
	switch transition {
	case EventBreach:
		events.Append(EventBreach, scene, 0, detail)
		if path, err := flight.Capture(scene, window, reason); err != nil {
			events.Append(EventBreach, scene, 0, "flight capture failed: "+err.Error())
		} else if path != "" {
			events.Append(EventBreach, scene, 0, "flight dump: "+path)
		}
	case EventRecovery:
		events.Append(EventRecovery, scene, 0, detail)
	}
	return breached
}

// Forget drops a session's state (called when the session is removed).
func (e *SLOEngine) Forget(scene string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	delete(e.states, scene)
	e.mu.Unlock()
}

// State returns one session's status (zero SLOStatus when unknown).
func (e *SLOEngine) State(scene string) SLOStatus {
	if e == nil {
		return SLOStatus{Scene: scene}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.states[scene]
	if !ok {
		return SLOStatus{Scene: scene}
	}
	return SLOStatus{
		Scene: scene, Breached: st.breached, Reason: st.reason,
		Breaches: st.breaches, Evals: st.evals, Window: st.last,
	}
}

// Status returns every tracked session's status, sorted by scene.
func (e *SLOEngine) Status() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]SLOStatus, 0, len(e.states))
	for scene, st := range e.states {
		out = append(out, SLOStatus{
			Scene: scene, Breached: st.breached, Reason: st.reason,
			Breaches: st.breaches, Evals: st.evals, Window: st.last,
		})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Scene < out[j].Scene })
	return out
}
