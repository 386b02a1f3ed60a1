// Package core is the paper's primary contribution as a library: the
// cross-layer control plane that binds the WLAN models (PHY beams + MAC
// airtime), the viewport-similarity multicast scheduler and the content
// layer into per-frame delivery plans. It owns the Network abstraction
// (802.11ac / 802.11ad with beam design) and the Planner that turns
// per-user requests into the airtime schedule the paper's Tm(k) model
// evaluates.
package core

import (
	"fmt"

	"volcast/internal/beam"
	"volcast/internal/geom"
	"volcast/internal/mac"
	"volcast/internal/phy"
)

// NetworkKind selects the WLAN technology.
type NetworkKind int

// The two WLANs the paper benchmarks.
const (
	NetAC NetworkKind = iota // 802.11ac, 5 GHz
	NetAD                    // 802.11ad, 60 GHz mmWave
)

// String implements fmt.Stringer.
func (k NetworkKind) String() string {
	if k == NetAC {
		return "802.11ac"
	}
	return "802.11ad"
}

// Network bundles the PHY and MAC of one WLAN. For 802.11ad it carries
// the full mmWave model (array, codebook, ray-traced channel, beam
// designer); 802.11ac links are modeled at their calibrated top rate, as
// in the paper's testbed where the 5 GHz signal was strong everywhere.
type Network struct {
	Kind NetworkKind
	MAC  *mac.Scheduler

	// mmWave members (nil for NetAC).
	Radio    *phy.Radio
	Codebook *phy.Codebook
	Designer *beam.Designer

	// GCR is the reliable-groupcast retry policy applied to multicast
	// rates (zero value = no retries).
	GCR mac.GCR
}

// NewAD assembles the 802.11ad network: an 8×4 UPA on the room's front
// wall, the default sector codebook, the ray-traced room channel and the
// calibrated AD MAC.
func NewAD() (*Network, error) {
	room := phy.DefaultRoom()
	arr, err := phy.NewArray(8, 4, geom.V(0, 2.5, room.Bounds.Min.Z), geom.QuatIdent())
	if err != nil {
		return nil, err
	}
	ch := phy.NewChannel(room)
	radio := phy.NewRadio(arr, ch)
	cb := phy.DefaultCodebook(arr, phy.DefaultCodebookConfig())
	sched, err := mac.NewScheduler(mac.DefaultAD())
	if err != nil {
		return nil, err
	}
	return &Network{
		Kind:     NetAD,
		MAC:      sched,
		Radio:    radio,
		Codebook: cb,
		Designer: beam.NewDesigner(radio, cb),
		GCR:      mac.DefaultGCR(),
	}, nil
}

// NewAC assembles the calibrated 802.11ac network.
func NewAC() (*Network, error) {
	sched, err := mac.NewScheduler(mac.DefaultAC())
	if err != nil {
		return nil, err
	}
	return &Network{Kind: NetAC, MAC: sched}, nil
}

// SetBodies updates the mmWave blockage set (no-op on 802.11ac, whose
// 5 GHz links diffract around bodies).
func (n *Network) SetBodies(bodies []phy.Body) {
	if n.Radio != nil {
		n.Radio.Channel.SetBodies(bodies)
	}
}

// UserRSS returns the RSS of a user at pos under the best default sector
// (sector-sweep training result, which falls back to reflected paths
// under blockage). Only valid on 802.11ad.
//
// Kept: the stream tests probe the modeled link with it.
func (n *Network) UserRSS(pos geom.Vec3) (float64, error) {
	if n.Kind != NetAD {
		return 0, fmt.Errorf("core: RSS undefined on %v", n.Kind)
	}
	_, rss := n.Radio.SweepBestSector(n.Codebook, pos)
	return rss, nil
}

// UnicastRate returns the effective (MAC-level, dedicated-airtime)
// unicast rate in Mbps for a user at pos; 0 on outage.
//
// Kept: the stream tests probe the modeled link with it.
func (n *Network) UnicastRate(pos geom.Vec3) float64 {
	return n.UnicastRateOffset(pos, 0)
}

// UnicastRateOffset is UnicastRate with an extra RSS offset in dB applied
// to the link (small-scale fading, antenna detuning, …).
func (n *Network) UnicastRateOffset(pos geom.Vec3, offsetDB float64) float64 {
	if n.Kind == NetAC {
		// Calibrated testbed: strong 5 GHz signal everywhere → top VHT MCS.
		top := phy.AC_VHT80_MCS[len(phy.AC_VHT80_MCS)-1]
		return n.MAC.EffectiveRate(top.RateMbps)
	}
	_, rss := n.Radio.SweepBestSector(n.Codebook, pos)
	return n.unicastRateAt(rss + offsetDB)
}

// unicastRateAt is the effective 802.11ad unicast rate at the given RSS.
func (n *Network) unicastRateAt(rssDBm float64) float64 {
	return n.MAC.EffectiveRate(phy.RateForRSS(phy.AD_SC_MCS, rssDBm))
}

// MulticastRate returns the effective multicast rate for a group of user
// positions: the common MCS under either the best default common sector
// or the customized multi-lobe beam (paper §4.2), through the MAC.
// Only meaningful on 802.11ad; on 802.11ac multicast uses the lowest MCS
// legacy rule and is modeled at the basic rate.
//
// Kept: the stream tests compare default and custom beams' group rates
// with it.
func (n *Network) MulticastRate(positions []geom.Vec3, customBeams bool) float64 {
	return n.MulticastRateOffset(positions, nil, customBeams)
}

// MulticastRateOffset is MulticastRate with optional per-member RSS
// offsets in dB (len must equal positions when non-nil).
func (n *Network) MulticastRateOffset(positions []geom.Vec3, offsetsDB []float64, customBeams bool) float64 {
	if len(positions) == 0 {
		return 0
	}
	if n.Kind == NetAC {
		return n.basicMulticastRate()
	}
	members := make([]beam.Member, len(positions))
	for i, p := range positions {
		members[i] = n.Designer.MemberFor(p)
	}
	return n.groupRate(members, offsetsDB, customBeams)
}

// rateCeiling is at least every rate the planner prices a link or a group
// at, so the greedy merge can bound a group's airtime before it designs
// a beam. Each such rate is the MAC's EffectiveRate of a PHY rate no
// higher than the top entry of the network's MCS table (which is in
// ascending order; the 802.11ac basic rate is below it too), and a
// group's is then divided by GCR.ExpectedTx ≥ 1. EffectiveRate grows
// with the PHY rate up to the transport cap, so the ceiling is the
// effective rate of the top entry: 1302 Mbps, the transport cap, on
// 802.11ad (TestRateCeilingBoundsPlannedRates, mac.TestExpectedTxAtLeastOne).
func (n *Network) rateCeiling() float64 {
	table := phy.AD_SC_MCS
	if n.Kind == NetAC {
		table = phy.AC_VHT80_MCS
	}
	return n.MAC.EffectiveRate(table[len(table)-1].RateMbps)
}

// basicMulticastRate is the 802.11ac multicast rate: legacy Wi-Fi
// multicast runs at a basic rate; it is never a win, which is why the
// paper's multicast design targets mmWave.
func (n *Network) basicMulticastRate() float64 { return n.MAC.EffectiveRate(24) }

// groupRate is the 802.11ad multicast rate for a non-empty group of swept
// members (see MulticastRateOffset).
func (n *Network) groupRate(members []beam.Member, offsetsDB []float64, customBeams bool) float64 {
	var rss []float64
	if customBeams {
		_, groupRSS, _, err := n.Designer.Select(members)
		if err != nil {
			return 0
		}
		rss = groupRSS
	} else {
		w, _ := n.Designer.BestDefaultCommon(members)
		rss = n.Designer.GroupRSS(w, members)
	}
	if len(offsetsDB) == len(rss) {
		for i := range rss {
			rss[i] += offsetsDB[i]
		}
	}
	m, ok := phy.CommonMCS(phy.AD_SC_MCS, rss)
	if !ok {
		return 0
	}
	rate := n.MAC.EffectiveRate(m.RateMbps)
	// Reliable groupcast: GCR retransmissions tax the airtime by each
	// member's margin above the chosen MCS's sensitivity.
	margins := make([]float64, len(rss))
	for i, v := range rss {
		margins[i] = v - m.SensitivityDBm
	}
	return n.GCR.ReliableMulticastRate(rate, margins)
}
