package abr

import (
	"math"
	"testing"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Predict(); got != 0 {
		t.Errorf("cold EWMA = %v", got)
	}
	e.Observe(Sample{T: 0, Mbps: 100})
	if got := e.Predict(); got != 100 {
		t.Errorf("first sample = %v", got)
	}
	e.Observe(Sample{T: 1, Mbps: 200})
	if got := e.Predict(); math.Abs(got-150) > 1e-12 {
		t.Errorf("EWMA = %v, want 150", got)
	}
	// Invalid alpha falls back to a sane default.
	if NewEWMA(0).Alpha != 0.3 || NewEWMA(2).Alpha != 0.3 {
		t.Error("alpha clamping failed")
	}
}

func TestCrossLayerCeiling(t *testing.T) {
	c := NewCrossLayer(NewEWMA(1))
	c.Observe(Sample{Mbps: 800})
	if got := c.Predict(); got != 800 {
		t.Errorf("no-hint predict = %v", got)
	}
	// The MCS dropped: app history still says 800, PHY says 300.
	c.ObservePHY(PHYHint{RateCeilingMbps: 300})
	if got := c.Predict(); got != 300 {
		t.Errorf("ceiling predict = %v", got)
	}
	// Ceiling above the estimate does nothing.
	c.ObservePHY(PHYHint{RateCeilingMbps: 2000})
	if got := c.Predict(); got != 800 {
		t.Errorf("high-ceiling predict = %v", got)
	}
}

func TestCrossLayerBlockageDiscount(t *testing.T) {
	c := NewCrossLayer(NewEWMA(1))
	c.Observe(Sample{Mbps: 1000})
	c.ObservePHY(PHYHint{BlockageExpected: true, BlockageLossFrac: 0.25})
	if got := c.Predict(); math.Abs(got-250) > 1e-9 {
		t.Errorf("blockage predict = %v", got)
	}
	// Default discount when the fraction is unset.
	c.ObservePHY(PHYHint{BlockageExpected: true})
	if got := c.Predict(); math.Abs(got-300) > 1e-9 {
		t.Errorf("default blockage predict = %v", got)
	}
	// Both ceiling and blockage compose.
	c.ObservePHY(PHYHint{RateCeilingMbps: 400, BlockageExpected: true, BlockageLossFrac: 0.5})
	if got := c.Predict(); math.Abs(got-200) > 1e-9 {
		t.Errorf("composed predict = %v", got)
	}
}

func TestBuffer(t *testing.T) {
	b := NewBuffer(2)
	if b.Level() != 0 {
		t.Error("new buffer not empty")
	}
	b.Add(1.5)
	if b.Level() != 1.5 {
		t.Errorf("level = %v", b.Level())
	}
	b.Add(5)
	if b.Level() != 2 {
		t.Errorf("capacity clamp failed: %v", b.Level())
	}
	b.Drain(0.5)
	if math.Abs(b.Level()-1.5) > 1e-12 {
		t.Errorf("drain level = %v", b.Level())
	}
	// Stall.
	b.Drain(3)
	if b.Level() != 0 {
		t.Errorf("post-stall level = %v", b.Level())
	}
	if b.Stalls != 1 || math.Abs(b.StallTime-1.5) > 1e-12 {
		t.Errorf("stalls=%d time=%v", b.Stalls, b.StallTime)
	}
	// Continued starvation is one stall event, accumulating time.
	b.Drain(1)
	if b.Stalls != 1 || math.Abs(b.StallTime-2.5) > 1e-12 {
		t.Errorf("stalls=%d time=%v", b.Stalls, b.StallTime)
	}
	// Refill ends the stall; the next starvation is a new event.
	b.Add(0.5)
	b.Drain(1)
	if b.Stalls != 2 {
		t.Errorf("stalls = %d", b.Stalls)
	}
	// Negative inputs are ignored.
	lvl := b.Level()
	b.Add(-1)
	b.Drain(-1)
	if b.Level() != lvl {
		t.Error("negative input changed buffer")
	}
	if NewBuffer(-1).Capacity != 2 {
		t.Error("capacity default failed")
	}
}

func TestControllerPriorities(t *testing.T) {
	c := NewController(DefaultConfig())
	base := State{
		PredictedMbps:    300,
		DemandMbps:       280,
		NextUpDemandMbps: 360,
		BufferLevel:      1.0,
		BufferCapacity:   2.0,
		GroupEfficiency:  1.1,
	}
	if got := c.Decide(base); got != ActionNone {
		t.Errorf("steady state = %v", got)
	}
	// Blockage with reflection: beam switch wins over everything.
	s := base
	s.BlockageExpected = true
	s.ReflectionAvailable = true
	s.BufferLevel = 0.1
	if got := c.Decide(s); got != ActionBeamSwitch {
		t.Errorf("blockage+reflection = %v", got)
	}
	// Blockage without reflection and a thin buffer: prefetch.
	s.ReflectionAvailable = false
	if got := c.Decide(s); got != ActionPrefetch {
		t.Errorf("blockage w/o reflection = %v", got)
	}
	// Blockage with a full buffer: ride it out (no panic action)...
	s.BufferLevel = 1.9
	if got := c.Decide(s); got == ActionPrefetch || got == ActionBeamSwitch {
		t.Errorf("full-buffer blockage = %v", got)
	}
}

func TestControllerQuality(t *testing.T) {
	c := NewController(DefaultConfig())
	// Predicted below demand: downgrade.
	s := State{PredictedMbps: 200, DemandMbps: 280, BufferLevel: 1.5, BufferCapacity: 2}
	if got := c.Decide(s); got != ActionQualityDown {
		t.Errorf("underrun = %v", got)
	}
	// Panic buffer: downgrade even when prediction looks fine.
	s = State{PredictedMbps: 500, DemandMbps: 280, BufferLevel: 0.2, BufferCapacity: 2}
	if got := c.Decide(s); got != ActionQualityDown {
		t.Errorf("panic buffer = %v", got)
	}
	// Plenty of headroom and a safe buffer: upgrade.
	s = State{
		PredictedMbps: 500, DemandMbps: 280, NextUpDemandMbps: 360,
		BufferLevel: 1.5, BufferCapacity: 2, GroupEfficiency: 1,
	}
	if got := c.Decide(s); got != ActionQualityUp {
		t.Errorf("headroom = %v", got)
	}
	// At the top rung (NextUp = 0): no upgrade.
	s.NextUpDemandMbps = 0
	if got := c.Decide(s); got != ActionNone {
		t.Errorf("top rung = %v", got)
	}
	// Headroom but buffer not yet safe: hold.
	s.NextUpDemandMbps = 360
	s.BufferLevel = 0.8
	if got := c.Decide(s); got != ActionNone {
		t.Errorf("unsafe buffer upgrade = %v", got)
	}
}

func TestControllerUpgradeDeltaCosting(t *testing.T) {
	c := NewController(DefaultConfig())
	// Prediction covers current demand plus the enhancement delta, but
	// not a full re-send of the next rung: flat content must hold, layered
	// content (delta known) must upgrade.
	s := State{
		PredictedMbps: 400, DemandMbps: 280, NextUpDemandMbps: 360,
		BufferLevel: 1.5, BufferCapacity: 2, GroupEfficiency: 1,
	}
	// 360 * 1.2 headroom = 432 > 400: full costing refuses.
	if got := c.Decide(s); got != ActionNone {
		t.Errorf("full-cost upgrade = %v, want none", got)
	}
	// Delta costing: (280 + 40) * 1.2 = 384 <= 400: upgrade.
	s.UpgradeDeltaMbps = 40
	if got := c.Decide(s); got != ActionQualityUp {
		t.Errorf("delta-cost upgrade = %v, want quality-up", got)
	}
	// A delta pricier than the full rung never raises the bar above the
	// full re-send cost.
	s.UpgradeDeltaMbps = 200
	s.PredictedMbps = 435 // clears 360*1.2 = 432, not (280+200)*1.2
	if got := c.Decide(s); got != ActionQualityUp {
		t.Errorf("oversized delta upgrade = %v, want quality-up (full-cost cap)", got)
	}
	// Delta costing never bypasses the buffer-safety gate.
	s.UpgradeDeltaMbps = 40
	s.BufferLevel = 0.8
	if got := c.Decide(s); got != ActionNone {
		t.Errorf("unsafe-buffer delta upgrade = %v, want none", got)
	}
}

func TestControllerRegroup(t *testing.T) {
	c := NewController(DefaultConfig())
	s := State{
		PredictedMbps: 400, DemandMbps: 280, NextUpDemandMbps: 360,
		BufferLevel: 1.8, BufferCapacity: 2,
		GroupEfficiency: 0.7,
	}
	if got := c.Decide(s); got != ActionRegroup {
		t.Errorf("inefficient group = %v", got)
	}
}

func TestActionString(t *testing.T) {
	for a := ActionNone; a <= ActionRegroup; a++ {
		if a.String() == "" {
			t.Errorf("empty name for %d", a)
		}
	}
	if Action(99).String() == "" {
		t.Error("unknown action name empty")
	}
}
