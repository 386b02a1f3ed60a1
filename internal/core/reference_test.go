package core

import (
	"math"

	"volcast/internal/beam"
	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/multicast"
	"volcast/internal/phy"
	"volcast/internal/vivo"
)

// The planner as it stood before the link-response kernel, as the oracle
// for the plan-level differential test: every RSS re-traces the room
// under the channel's current bodies (Channel.Paths and Array.GainDBi are
// themselves pinned bit-exact in internal/phy), blockage is toggled on
// the shared channel per user and per candidate group, nothing is
// memoised, and overlaps are intersected in maps.

func refRSS(r *phy.Radio, w phy.AWV, rx geom.Vec3) float64 {
	var linear float64
	for _, p := range r.Channel.Paths(r.Array.Pos, rx) {
		g := r.Array.GainDBi(w, p.Dir)
		dbm := r.Budget.TxPowerDBm + g + r.Budget.RxGainDBi - phy.FSPL(p.Length) - p.ExtraLossDB
		linear += math.Pow(10, dbm/10)
	}
	if linear <= 0 {
		return -200
	}
	return 10 * math.Log10(linear)
}

func refMemberFor(n *Network, pos geom.Vec3) beam.Member {
	var best phy.AWV
	bestRSS := math.Inf(-1)
	for _, s := range n.Codebook.Sectors {
		if v := refRSS(n.Radio, s.W, pos); v > bestRSS {
			best, bestRSS = s.W, v
		}
	}
	return beam.Member{Pos: pos, W: best, RSSDBm: bestRSS}
}

func refGroupRSS(n *Network, w phy.AWV, members []beam.Member) []float64 {
	out := make([]float64, len(members))
	for i, m := range members {
		out[i] = refRSS(n.Radio, w, m.Pos)
	}
	return out
}

func refMinRSS(rss []float64) float64 {
	m := math.Inf(1)
	for _, v := range rss {
		if v < m {
			m = v
		}
	}
	return m
}

func refDesignCustom(n *Network, members []beam.Member) (phy.AWV, error) {
	w, err := beam.Combine(members)
	if err != nil {
		return nil, err
	}
	cur := append([]beam.Member(nil), members...)
	for it := 0; it < n.Designer.RefineIters; it++ {
		rss := refGroupRSS(n, w, cur)
		for i := range cur {
			cur[i].RSSDBm = rss[i]
		}
		w2, err := beam.Combine(cur)
		if err != nil {
			return nil, err
		}
		if refMinRSS(refGroupRSS(n, w2, cur)) > refMinRSS(rss) {
			w = w2
		}
	}
	return w, nil
}

func refBestDefaultCommon(n *Network, members []beam.Member) (phy.AWV, float64) {
	var best phy.AWV
	bestMin := math.Inf(-1)
	for _, s := range n.Codebook.Sectors {
		if m := refMinRSS(refGroupRSS(n, s.W, members)); m > bestMin {
			best, bestMin = s.W, m
		}
	}
	return best, bestMin
}

func refSelect(n *Network, members []beam.Member) ([]float64, error) {
	custom, err := refDesignCustom(n, members)
	if err != nil {
		return nil, err
	}
	defW, defMin := refBestDefaultCommon(n, members)
	customRSS := refGroupRSS(n, custom, members)
	if refMinRSS(customRSS) > defMin {
		return customRSS, nil
	}
	return refGroupRSS(n, defW, members), nil
}

func refMulticastRateOffset(n *Network, positions []geom.Vec3, offsetsDB []float64, customBeams bool) float64 {
	members := make([]beam.Member, len(positions))
	for i, p := range positions {
		members[i] = refMemberFor(n, p)
	}
	var rss []float64
	if customBeams {
		var err error
		if rss, err = refSelect(n, members); err != nil {
			return 0
		}
	} else {
		w, _ := refBestDefaultCommon(n, members)
		rss = refGroupRSS(n, w, members)
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
	margins := make([]float64, len(rss))
	for i, v := range rss {
		margins[i] = v - m.SensitivityDBm
	}
	return n.GCR.ReliableMulticastRate(rate, margins)
}

func refOverlapBytes(store *vivo.Store, frame int, reqs []vivo.Request, members []int) int {
	if len(members) == 0 {
		return 0
	}
	common := make(map[cell.ID]int, len(reqs[members[0]].Cells)) // cell -> min stride
	for _, c := range reqs[members[0]].Cells {
		common[c.ID] = c.Stride
	}
	for _, m := range members[1:] {
		cur := make(map[cell.ID]int, len(reqs[m].Cells))
		for _, c := range reqs[m].Cells {
			cur[c.ID] = c.Stride
		}
		for id, st := range common {
			st2, ok := cur[id]
			if !ok {
				delete(common, id)
				continue
			}
			if st2 < st {
				common[id] = st2
			}
		}
	}
	total := 0
	for id, st := range common {
		if b := store.Block(frame, id, st); b != nil {
			total += b.Size()
		}
	}
	return total
}

func refExcludeNearAny(bodies []phy.Body, rxs []geom.Vec3) []phy.Body {
	out := make([]phy.Body, 0, len(bodies))
	for _, b := range bodies {
		keep := true
		for _, rx := range rxs {
			d := geom.V(b.Center.X-rx.X, 0, b.Center.Z-rx.Z)
			if d.Len() < 0.3 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, b)
		}
	}
	return out
}

// refPlan is the pre-kernel Planner.Plan on an 802.11ad network, one
// store for all users.
func refPlan(net *Network, mode Mode, in FrameInput) (*FramePlan, error) {
	n := len(in.Requests)
	users := make([]multicast.User, n)
	for u := 0; u < n; u++ {
		net.SetBodies(refExcludeNearAny(in.Bodies, in.Positions[u:u+1]))
		off := 0.0
		if len(in.RSSOffsetsDB) == n {
			off = in.RSSOffsetsDB[u]
		}
		users[u] = multicast.User{
			ID:              u,
			RequestBytes:    in.Requests[u].Bytes(in.Store.SizeOracle(in.Frame)),
			UnicastRateMbps: net.MAC.EffectiveRate(phy.RateForRSS(phy.AD_SC_MCS, refMemberFor(net, in.Positions[u]).RSSDBm+off)),
		}
	}
	net.SetBodies(in.Bodies)
	prob := &multicast.Problem{
		Users: users,
		OverlapBytes: func(members []int) int {
			return refOverlapBytes(in.Store, in.Frame, in.Requests, members)
		},
		MulticastRate: func(members []int) float64 {
			pos := make([]geom.Vec3, len(members))
			var offs []float64
			if len(in.RSSOffsetsDB) == n {
				offs = make([]float64, len(members))
			}
			for i, m := range members {
				pos[i] = in.Positions[m]
				if offs != nil {
					offs[i] = in.RSSOffsetsDB[m]
				}
			}
			net.SetBodies(refExcludeNearAny(in.Bodies, pos))
			defer net.SetBodies(in.Bodies)
			return refMulticastRateOffset(net, pos, offs, in.CustomBeams)
		},
	}
	var groups [][]int
	if mode == ModeMulticast {
		var err error
		if groups, err = prob.Greedy(); err != nil {
			return nil, err
		}
	} else {
		groups = make([][]int, n)
		for u := range groups {
			groups[u] = []int{u}
		}
	}
	return &FramePlan{Groups: groups, Users: users, PlanTime: prob.PlanTime(groups)}, nil
}
