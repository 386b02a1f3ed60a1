// Package beam implements the paper's customized multi-lobe beam design
// for mmWave multicast (§4.2): combining the antenna weight vectors of
// per-user beams — weighted by the users' RSS so the weaker user receives
// more power — under a total transmit-power constraint. It also provides
// the beam selection rule (default common beam vs custom multi-lobe) and
// the probing step the paper lists as an open challenge.
package beam

import (
	"errors"
	"math"

	"volcast/internal/geom"
	"volcast/internal/phy"
)

// Member is one multicast group member as seen by the beam designer.
type Member struct {
	// Pos is the member's position (receive antenna).
	Pos geom.Vec3
	// W is the single-user beam serving this member alone (typically the
	// best codebook sector or the steered beam from predicted 6DoF pose).
	W phy.AWV
	// RSSDBm is the RSS the member gets under W.
	RSSDBm float64
	// Link is the member's link response, built with the designer's
	// codebook, and Blocked the mask of its body-blocked paths. MemberFor
	// and MemberOn fill both; the Designer's methods evaluate beams
	// through them (Combine needs only W and RSSDBm).
	Link    *phy.Link
	Blocked uint64
}

// Combine builds the multi-lobe AWV from the members' individual beams
// using the paper's rule, generalized from two users to k:
//
//	w = Σ_i c_i · w_i,   c_i ∝ 1/Δ_i  (Δ_i = linear RSS of member i)
//
// For two members this reduces exactly to w = (Δ₂w₁ + Δ₁w₂)/(Δ₁+Δ₂):
// the weaker member's beam receives the larger share. The result is
// normalized to unit power (the total-power constraint).
func Combine(members []Member) (phy.AWV, error) {
	if len(members) == 0 {
		return nil, errors.New("beam: empty group")
	}
	n := len(members[0].W)
	if n == 0 {
		return nil, errors.New("beam: empty weight vector")
	}
	for _, m := range members[1:] {
		if len(m.W) != n {
			return nil, errors.New("beam: mismatched weight vector lengths")
		}
	}
	if len(members) == 1 {
		return members[0].W.Normalize(), nil
	}
	// Inverse linear-RSS coefficients.
	var sum float64
	inv := make([]float64, len(members))
	for i, m := range members {
		lin := math.Pow(10, m.RSSDBm/10)
		if lin <= 0 {
			lin = 1e-20
		}
		inv[i] = 1 / lin
		sum += inv[i]
	}
	out := make(phy.AWV, n)
	for i, m := range members {
		c := complex(inv[i]/sum, 0)
		for e := range out {
			out[e] += c * m.W[e]
		}
	}
	return out.Normalize(), nil
}

// Designer designs and selects transmit beams for multicast groups using
// only per-user RSS (no full CSI), as the paper's hardware allows.
type Designer struct {
	Radio    *phy.Radio
	Codebook *phy.Codebook
	// RefineIters is the number of re-weighting iterations: after
	// combining, the designer re-measures each member's RSS under the
	// combined beam (the "probing" step) and re-combines. 0 reproduces
	// the paper's one-shot rule.
	RefineIters int
}

// NewDesigner returns a designer with one refinement iteration.
func NewDesigner(r *phy.Radio, cb *phy.Codebook) *Designer {
	return &Designer{Radio: r, Codebook: cb, RefineIters: 1}
}

// MemberFor builds the Member record for a user position: the codebook
// sector a sector sweep would pick (highest delivered RSS, possibly via a
// reflection when the LOS is blocked) and the RSS under it, with the
// channel's current bodies as blockers.
func (d *Designer) MemberFor(pos geom.Vec3) Member {
	l := d.Radio.Link(d.Codebook, pos)
	return MemberOn(l, l.BlockedBy(d.Radio.Channel.Bodies))
}

// MemberOn is MemberFor over a link response already built with the
// designer's codebook, under the given blocked-path mask.
func MemberOn(l *phy.Link, blocked uint64) Member {
	s, rss := l.Sweep(blocked)
	return Member{Pos: l.Rx(), W: s.W, RSSDBm: rss, Link: l, Blocked: blocked}
}

// GroupRSS returns each member's RSS under the given beam.
func (d *Designer) GroupRSS(w phy.AWV, members []Member) []float64 {
	out := make([]float64, len(members))
	for i, m := range members {
		out[i] = m.Link.RSS(w, m.Blocked)
	}
	return out
}

// minRSS returns the weakest member's RSS (the multicast bottleneck).
func minRSS(rss []float64) float64 {
	m := math.Inf(1)
	for _, v := range rss {
		if v < m {
			m = v
		}
	}
	return m
}

// DesignCustom returns the multi-lobe beam for the group, refined
// RefineIters times by probing.
func (d *Designer) DesignCustom(members []Member) (phy.AWV, error) {
	w, _, err := d.designCustom(members)
	return w, err
}

// designCustom is DesignCustom that also returns the group's RSS under
// the beam, which the probing measured.
func (d *Designer) designCustom(members []Member) (phy.AWV, []float64, error) {
	w, err := Combine(members)
	if err != nil {
		return nil, nil, err
	}
	rss := d.GroupRSS(w, members)
	cur := append([]Member(nil), members...)
	for it := 0; it < d.RefineIters; it++ {
		for i := range cur {
			cur[i].RSSDBm = rss[i]
		}
		w2, err := Combine(cur)
		if err != nil {
			return nil, nil, err
		}
		// Keep the refinement only if it helps the bottleneck member.
		if rss2 := d.GroupRSS(w2, cur); minRSS(rss2) > minRSS(rss) {
			w, rss = w2, rss2
		}
	}
	return w, rss, nil
}

// BestDefaultCommon returns the single codebook sector with the highest
// bottleneck (min-member) RSS — the best a default-codebook device can do
// for the whole group with one beam.
func (d *Designer) BestDefaultCommon(members []Member) (phy.AWV, float64) {
	s, m := d.bestDefaultCommon(members)
	if s < 0 {
		return nil, m
	}
	return d.Codebook.Sectors[s].W, m
}

// bestDefaultCommon is BestDefaultCommon by sector index, -1 for none.
func (d *Designer) bestDefaultCommon(members []Member) (int, float64) {
	return phy.BestCommonSector(d.Codebook, len(members), func(i int) (*phy.Link, uint64) {
		return members[i].Link, members[i].Blocked
	})
}

// Choice reports which beam the selection rule picked.
type Choice int

// The selection outcomes.
const (
	ChoseDefault Choice = iota // default common beam was already sufficient
	ChoseCustom                // custom multi-lobe beam improved the bottleneck
)

// Select applies the paper's rule: design the custom beam, probe it, and
// use it only when it beats the best default common beam on the
// bottleneck RSS ("when both users have high RSS, we should directly use
// the default common beam"). Returns the chosen beam, the group's RSS
// under it, and which rule fired. Every RSS is one already measured: the
// custom beam's by its probing, the default beam's by the sector sweep
// (a sector's RSS equals the RSS under its weights, bit for bit).
func (d *Designer) Select(members []Member) (phy.AWV, []float64, Choice, error) {
	custom, customRSS, err := d.designCustom(members)
	if err != nil {
		return nil, nil, ChoseDefault, err
	}
	s, defMin := d.bestDefaultCommon(members)
	if minRSS(customRSS) > defMin {
		return custom, customRSS, ChoseCustom, nil
	}
	rss := make([]float64, len(members))
	for i, m := range members {
		rss[i] = m.Link.SectorRSS(s, m.Blocked)
	}
	return d.Codebook.Sectors[s].W, rss, ChoseDefault, nil
}
