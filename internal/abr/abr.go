// Package abr implements the paper's cross-layer video rate adaptation
// (§4.3): bandwidth prediction that fuses application-layer throughput
// history with physical-layer indicators (MCS rate ceiling from RSS,
// predicted blockage), a playback-buffer model, and the central
// controller that reacts to predicted bandwidth fluctuation with one of
// the paper's actions — prefetching, video quality adaptation, beam
// switching, or multicast regrouping.
package abr

import (
	"fmt"
	"math"
)

// Sample is one application-layer throughput measurement.
type Sample struct {
	// T is the measurement time in seconds.
	T float64
	// Mbps is the measured goodput.
	Mbps float64
}

// Predictor estimates near-future bandwidth from past samples.
type Predictor interface {
	// Observe records a throughput sample.
	Observe(s Sample)
	// Predict returns the expected bandwidth (Mbps) for the next window.
	Predict() float64
}

// EWMA is the classic exponentially-weighted moving average predictor —
// the pure application-layer baseline.
type EWMA struct {
	// Alpha is the smoothing factor in (0,1]; higher reacts faster.
	Alpha float64

	est  float64
	seen bool
}

// NewEWMA returns an EWMA predictor (alpha clamped into (0,1]).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &EWMA{Alpha: alpha}
}

// Observe implements Predictor.
func (e *EWMA) Observe(s Sample) {
	if !e.seen {
		e.est, e.seen = s.Mbps, true
		return
	}
	e.est = e.Alpha*s.Mbps + (1-e.Alpha)*e.est
}

// Predict implements Predictor.
func (e *EWMA) Predict() float64 { return e.est }

// PHYHint carries the physical-layer indicators into the predictor — the
// cross-layer information an application-only player never sees.
type PHYHint struct {
	// RateCeilingMbps is the goodput ceiling implied by the current (or
	// predicted) MCS; 0 means unknown.
	RateCeilingMbps float64
	// BlockageExpected is set when the viewport-prediction layer expects
	// a body to cut the link within the adaptation horizon.
	BlockageExpected bool
	// BlockageLossFrac is the expected goodput fraction surviving a
	// blockage (e.g. 0.3 when reflections carry ~30%).
	BlockageLossFrac float64
}

// CrossLayer fuses an application-layer predictor with PHY hints: the
// prediction is clamped to the MCS ceiling and discounted ahead of a
// predicted blockage. This is the paper's bandwidth predictor.
type CrossLayer struct {
	// App is the application-layer history predictor.
	App Predictor

	hint PHYHint
}

// NewCrossLayer wraps an app-layer predictor.
func NewCrossLayer(app Predictor) *CrossLayer { return &CrossLayer{App: app} }

// Observe implements Predictor.
func (c *CrossLayer) Observe(s Sample) { c.App.Observe(s) }

// ObservePHY updates the physical-layer hint.
func (c *CrossLayer) ObservePHY(h PHYHint) { c.hint = h }

// Predict implements Predictor.
func (c *CrossLayer) Predict() float64 {
	est := c.App.Predict()
	if c.hint.RateCeilingMbps > 0 && est > c.hint.RateCeilingMbps {
		est = c.hint.RateCeilingMbps
	}
	if c.hint.BlockageExpected {
		f := c.hint.BlockageLossFrac
		if f <= 0 || f > 1 {
			f = 0.3
		}
		est *= f
	}
	return est
}

// Buffer models the client playback buffer in seconds of content.
type Buffer struct {
	// Capacity is the maximum buffered playback time.
	Capacity float64

	level float64
	// Stalls counts rebuffering events.
	Stalls int
	// StallTime accumulates total stalled seconds.
	StallTime float64
	stalled   bool
}

// NewBuffer returns a buffer with the given capacity (seconds).
func NewBuffer(capacity float64) *Buffer {
	if capacity <= 0 {
		capacity = 2
	}
	return &Buffer{Capacity: capacity}
}

// Level returns the buffered seconds.
func (b *Buffer) Level() float64 { return b.level }

// Add inserts downloaded content (seconds of playback), clamped to
// capacity; it ends a stall if one was in progress.
func (b *Buffer) Add(seconds float64) {
	if seconds < 0 {
		return
	}
	b.level = math.Min(b.level+seconds, b.Capacity)
	if b.level > 0 {
		b.stalled = false
	}
}

// Drain plays back dt seconds; an empty buffer registers a stall.
func (b *Buffer) Drain(dt float64) {
	if dt < 0 {
		return
	}
	if b.level >= dt {
		b.level -= dt
		return
	}
	// Partial play then stall.
	short := dt - b.level
	b.level = 0
	b.StallTime += short
	if !b.stalled {
		b.Stalls++
		b.stalled = true
	}
}

// Action is the controller's reaction to predicted bandwidth changes —
// the options enumerated in §4.3.
type Action int

// The possible decisions.
const (
	ActionNone Action = iota
	// ActionPrefetch fetches future cells for users with low predicted
	// bandwidth while the link is still good.
	ActionPrefetch
	// ActionQualityDown lowers the video encoding quality.
	ActionQualityDown
	// ActionQualityUp raises the video encoding quality.
	ActionQualityUp
	// ActionBeamSwitch steers to a reflection path (predicted blockage).
	ActionBeamSwitch
	// ActionRegroup re-runs multicast grouping (viewport drift made the
	// current groups inefficient).
	ActionRegroup
)

var actionNames = [...]string{"none", "prefetch", "quality-down", "quality-up", "beam-switch", "regroup"}

// String implements fmt.Stringer.
func (a Action) String() string {
	if a >= 0 && int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// State is the controller's input for one user (or one multicast group).
type State struct {
	// PredictedMbps is the cross-layer bandwidth prediction.
	PredictedMbps float64
	// DemandMbps is the bitrate of the current quality.
	DemandMbps float64
	// NextUpDemandMbps is the bitrate one quality rung up (0 = at top).
	NextUpDemandMbps float64
	// UpgradeDeltaMbps is the transition cost of the upgrade itself: an
	// upgrade ships only the enhancement layers, so the rate needed
	// during the switch is DemandMbps + UpgradeDeltaMbps rather than the
	// full next rung. 0 means the caller did not price it and falls back
	// to costing the upgrade at NextUpDemandMbps.
	UpgradeDeltaMbps float64
	// BufferLevel / BufferCapacity describe the playback buffer.
	BufferLevel, BufferCapacity float64
	// BlockageExpected is the cross-layer blockage forecast.
	BlockageExpected bool
	// ReflectionAvailable reports a usable reflection path (beam switch
	// candidate).
	ReflectionAvailable bool
	// GroupEfficiency is multicast airtime saving vs unicast (1 = parity,
	// <1 means the current grouping wastes airtime).
	GroupEfficiency float64
}

// Config tunes the controller thresholds.
type Config struct {
	// PanicBufferFrac: below this buffer fraction, drop quality.
	PanicBufferFrac float64
	// SafeBufferFrac: above this fraction upgrades are allowed.
	SafeBufferFrac float64
	// UpHeadroom: required PredictedMbps / NextUpDemand ratio to upgrade.
	UpHeadroom float64
	// DownTrigger: PredictedMbps / Demand ratio that forces a downgrade.
	DownTrigger float64
	// RegroupBelow: GroupEfficiency threshold that triggers regrouping.
	RegroupBelow float64
}

// DefaultConfig returns the controller tuning used in the experiments.
func DefaultConfig() Config {
	return Config{
		PanicBufferFrac: 0.2,
		SafeBufferFrac:  0.6,
		UpHeadroom:      1.2,
		DownTrigger:     0.95,
		RegroupBelow:    0.9,
	}
}

// Controller is the central (edge-server side) rate-adaptation logic.
// Unlike conventional client-side ABR, it sees all users and the PHY.
type Controller struct {
	cfg Config
}

// NewController returns a controller with the given thresholds
// (DefaultConfig is the tuning every experiment runs).
func NewController(cfg Config) *Controller { return &Controller{cfg: cfg} }

// Decide returns the action for the given state, in priority order:
// survive blockage (beam switch or prefetch) → avoid stalls (quality
// down) → fix wasteful grouping → use spare capacity (quality up).
func (c *Controller) Decide(s State) Action {
	bufFrac := 0.0
	if s.BufferCapacity > 0 {
		bufFrac = s.BufferLevel / s.BufferCapacity
	}
	if s.BlockageExpected {
		if s.ReflectionAvailable {
			return ActionBeamSwitch
		}
		if bufFrac < c.cfg.SafeBufferFrac {
			return ActionPrefetch
		}
	}
	if bufFrac < c.cfg.PanicBufferFrac && s.DemandMbps > 0 {
		return ActionQualityDown
	}
	if s.DemandMbps > 0 && s.PredictedMbps < s.DemandMbps*c.cfg.DownTrigger {
		return ActionQualityDown
	}
	if s.GroupEfficiency > 0 && s.GroupEfficiency < c.cfg.RegroupBelow {
		return ActionRegroup
	}
	if s.NextUpDemandMbps > 0 && bufFrac >= c.cfg.SafeBufferFrac {
		// The rate the upgrade must sustain: at most the full next rung,
		// but only current demand plus the enhancement delta when the
		// caller priced the incremental upgrade — the cheaper transition
		// unlocks upgrades a full re-send could not afford.
		upCost := s.NextUpDemandMbps
		if s.UpgradeDeltaMbps > 0 {
			if c := s.DemandMbps + s.UpgradeDeltaMbps; c < upCost {
				upCost = c
			}
		}
		if s.PredictedMbps >= upCost*c.cfg.UpHeadroom {
			return ActionQualityUp
		}
	}
	return ActionNone
}
