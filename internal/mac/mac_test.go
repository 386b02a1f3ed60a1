package mac

import (
	"math"
	"testing"

	"volcast/internal/phy"
)

func TestNewSchedulerValidation(t *testing.T) {
	bad := []Config{
		{},
		{BeaconIntervalMs: 100, Efficiency: 0, TransportCapMbps: 100},
		{BeaconIntervalMs: 100, Efficiency: 1.5, TransportCapMbps: 100},
		{BeaconIntervalMs: 100, Efficiency: 0.5, TransportCapMbps: 0},
		{BeaconIntervalMs: 100, Efficiency: 0.5, TransportCapMbps: 100, TrainingPerUserMs: -1},
	}
	for i, c := range bad {
		if _, err := NewScheduler(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := NewScheduler(DefaultAD()); err != nil {
		t.Errorf("default AD rejected: %v", err)
	}
	if _, err := NewScheduler(DefaultAC()); err != nil {
		t.Errorf("default AC rejected: %v", err)
	}
}

func TestAirtimeFrac(t *testing.T) {
	s, _ := NewScheduler(DefaultAD())
	if got := s.AirtimeFrac(0); got != 1 {
		t.Errorf("AirtimeFrac(0) = %v", got)
	}
	if got := s.AirtimeFrac(4); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("AirtimeFrac(4) = %v", got)
	}
	if got := s.AirtimeFrac(-3); got != 1 {
		t.Errorf("AirtimeFrac(-3) = %v", got)
	}
	// Saturating at zero for absurd user counts.
	if got := s.AirtimeFrac(1000); got != 0 {
		t.Errorf("AirtimeFrac(1000) = %v", got)
	}
}

// TestCalibrationAgainstPaperSchedule checks the model reproduces the
// paper's measured per-user rate schedule (Table 1 col. 2) within 10%.
func TestCalibrationAgainstPaperSchedule(t *testing.T) {
	ad, _ := NewScheduler(DefaultAD())
	// All users at top MCS (the testbed's users sat in the main lobe).
	paperAD := []float64{1270, 575, 382, 298, 231, 175, 144}
	for n := 1; n <= 7; n++ {
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 4620 // MCS12
		}
		got := ad.UnicastGoodputs(rates)[0]
		want := paperAD[n-1]
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("AD %d users: model %.0f vs paper %.0f Mbps (%.0f%% off)",
				n, got, want, rel*100)
		}
	}
	ac, _ := NewScheduler(DefaultAC())
	paperAC := []float64{374, 180, 112}
	for n := 1; n <= 3; n++ {
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 390 // VHT MCS9
		}
		got := ac.UnicastGoodputs(rates)[0]
		want := paperAC[n-1]
		if rel := math.Abs(got-want) / want; rel > 0.12 {
			t.Errorf("AC %d users: model %.0f vs paper %.0f Mbps (%.0f%% off)",
				n, got, want, rel*100)
		}
	}
}

func TestUnicastGoodputsAirtimeFair(t *testing.T) {
	s, _ := NewScheduler(DefaultAD())
	// Users at different MCS get different goodputs but equal airtime.
	got := s.UnicastGoodputs([]float64{4620, 385})
	if got[0] <= got[1] {
		t.Errorf("faster user not faster: %v", got)
	}
	// The slow user's goodput equals its capped rate × share.
	share := s.AirtimeFrac(2) / 2
	want := 385 * 0.62 * share
	if math.Abs(got[1]-want) > 1e-9 {
		t.Errorf("slow user goodput %v, want %v", got[1], want)
	}
	if out := s.UnicastGoodputs(nil); len(out) != 0 {
		t.Errorf("empty input gave %v", out)
	}
}

func TestGoodputForRSS(t *testing.T) {
	s, _ := NewScheduler(DefaultAD())
	got := s.GoodputForRSS([]float64{-50, -90})
	if got[0] <= 0 {
		t.Error("strong user got zero goodput")
	}
	if got[1] != 0 {
		t.Errorf("outage user got %v", got[1])
	}
}

func TestTransportCapBinds(t *testing.T) {
	s, _ := NewScheduler(DefaultAD())
	one := s.UnicastGoodputs([]float64{4620})
	if one[0] > s.Config().TransportCapMbps {
		t.Errorf("goodput %v exceeds transport cap", one[0])
	}
	// At low MCS the cap must NOT bind.
	low := s.UnicastGoodputs([]float64{385})
	if low[0] >= s.Config().TransportCapMbps*s.AirtimeFrac(1) {
		t.Errorf("cap bound at low MCS: %v", low[0])
	}
}

func TestMCSMapIntegration(t *testing.T) {
	// RSS -68 (MCS1) through the AD MAC: 385 × 0.62 × share.
	s, _ := NewScheduler(DefaultAD())
	got := s.GoodputForRSS([]float64{-68})
	want := 385 * 0.62 * s.AirtimeFrac(1)
	if math.Abs(got[0]-want) > 1e-9 {
		t.Errorf("goodput at -68 dBm = %v, want %v", got[0], want)
	}
	_ = phy.AD_SC_MCS
}
