// Package mac models the WLAN medium-access layer that turns PHY rates
// into per-user application goodput: beacon-interval structure with
// per-user beamforming-training overhead (802.11ad), airtime-fair service
// periods, MAC framing efficiency, and the host/transport ceiling that
// caps what a real device delivers to the application. The model is
// calibrated against the paper's measured per-user data-rate schedule
// (Table 1, column 2): 374/180/112 Mbps for 1–3 users on 802.11ac and
// 1270/575/382/298/231/175/144 Mbps for 1–7 users on 802.11ad.
package mac

import (
	"fmt"

	"volcast/internal/phy"
)

// Config are the MAC model parameters.
type Config struct {
	// BeaconIntervalMs is the beacon interval (802.11ad schedules service
	// periods inside it).
	BeaconIntervalMs float64
	// TrainingPerUserMs is the per-user per-interval overhead: sector
	// sweeps/beam refinement on 802.11ad, management and contention
	// losses on 802.11ac.
	TrainingPerUserMs float64
	// Efficiency is the PHY-rate → MAC-goodput factor (headers,
	// acknowledgements, retries, inter-frame spaces).
	Efficiency float64
	// TransportCapMbps is the host-side ceiling (TCP stack, DMA, driver)
	// observed on real devices regardless of PHY rate.
	TransportCapMbps float64
	// Table is the MCS table used to map RSS to PHY rate.
	Table []phy.MCS
}

// DefaultAD returns the 802.11ad model calibrated to the paper's testbed:
// a single user saturates at ≈1270 Mbps and the 7-user schedule matches
// the measured column within a few percent.
func DefaultAD() Config {
	return Config{
		BeaconIntervalMs:  100,
		TrainingPerUserMs: 2.5,
		Efficiency:        0.62,
		TransportCapMbps:  1302,
		Table:             phy.AD_SC_MCS,
	}
}

// DefaultAC returns the 802.11ac model calibrated to the paper's testbed
// (374 Mbps single-user goodput on VHT80).
func DefaultAC() Config {
	return Config{
		BeaconIntervalMs:  100,
		TrainingPerUserMs: 1.8,
		Efficiency:        0.96,
		TransportCapMbps:  380,
		Table:             phy.AC_VHT80_MCS,
	}
}

// Scheduler computes airtime shares and goodputs for a set of users.
type Scheduler struct {
	cfg Config
}

// NewScheduler validates the config and returns a scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.BeaconIntervalMs <= 0 || cfg.Efficiency <= 0 || cfg.Efficiency > 1 {
		return nil, fmt.Errorf("mac: invalid config %+v", cfg)
	}
	if cfg.TrainingPerUserMs < 0 || cfg.TransportCapMbps <= 0 {
		return nil, fmt.Errorf("mac: invalid config %+v", cfg)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Config returns the scheduler's configuration.
//
// Kept: the mac tests read the transport cap from it.
func (s *Scheduler) Config() Config { return s.cfg }

// AirtimeFrac returns the fraction of the beacon interval available for
// data after n users' training/management overhead.
func (s *Scheduler) AirtimeFrac(n int) float64 {
	if n < 0 {
		n = 0
	}
	f := 1 - float64(n)*s.cfg.TrainingPerUserMs/s.cfg.BeaconIntervalMs
	if f < 0 {
		return 0
	}
	return f
}

// userCap returns the application-level rate one user could sustain alone
// on a dedicated medium at the given PHY rate.
func (s *Scheduler) userCap(phyMbps float64) float64 {
	g := phyMbps * s.cfg.Efficiency
	if g > s.cfg.TransportCapMbps {
		g = s.cfg.TransportCapMbps
	}
	return g
}

// EffectiveRate returns the application-level rate a dedicated medium
// sustains at the given PHY rate — the r_i / r_m terms of the multicast
// scheduler's airtime model (time-sharing is accounted separately).
func (s *Scheduler) EffectiveRate(phyMbps float64) float64 { return s.userCap(phyMbps) }

// UnicastGoodputs returns each user's application goodput when the n
// users with the given PHY rates share the medium with airtime fairness
// (equal time shares of the post-overhead interval).
func (s *Scheduler) UnicastGoodputs(phyMbps []float64) []float64 {
	n := len(phyMbps)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	share := s.AirtimeFrac(n) / float64(n)
	for i, r := range phyMbps {
		out[i] = s.userCap(r) * share
	}
	return out
}

// GoodputForRSS is UnicastGoodputs applied to RSS values via the MCS
// table; users in outage get 0.
func (s *Scheduler) GoodputForRSS(rss []float64) []float64 {
	phyRates := make([]float64, len(rss))
	for i, v := range rss {
		phyRates[i] = phy.RateForRSS(s.cfg.Table, v)
	}
	return s.UnicastGoodputs(phyRates)
}
