// Package multicast implements viewport-similarity-based multicast
// grouping (paper §4.2). For a user group k the per-frame transmission
// time is the paper's cost model
//
//	Tm(k) = Sm(k)/rm + Σ_{i∈k} (Si − Sm(k))/ri
//
// where Sm(k) is the size of the group's overlapped (commonly requested)
// cells, rm the multicast rate the beam design sustains for the group,
// and Si, ri user i's total requested bytes and unicast rate. The
// scheduler picks the partition of users into multicast groups (plus
// unicast leftovers) that minimizes total airtime, subject to the frame
// deadline Σ Tm ≤ 1/F.
package multicast

import (
	"fmt"
	"math"
	"slices"
)

// User is one streaming client from the scheduler's point of view.
type User struct {
	// ID is the caller's user index.
	ID int
	// RequestBytes is Si: the user's total requested bytes this frame.
	RequestBytes int
	// UnicastRateMbps is ri: the user's effective unicast rate.
	UnicastRateMbps float64
}

// Problem describes one frame's grouping decision. OverlapBytes and
// MulticastRate abstract the content layer (visibility maps + encoded
// sizes) and the PHY layer (beam design + common MCS), keeping the
// scheduler testable in isolation.
type Problem struct {
	// Users are the clients to serve.
	Users []User
	// OverlapBytes returns Sm for a member set (indices into Users).
	OverlapBytes func(members []int) int
	// MulticastRate returns rm (Mbps) for a member set — what the beam
	// designer + common-MCS rule sustain. Return 0 when the group cannot
	// be served reliably (forces unicast).
	MulticastRate func(members []int) float64
}

// validate checks the problem is well-formed.
func (p *Problem) validate() error {
	if p.OverlapBytes == nil || p.MulticastRate == nil {
		return fmt.Errorf("multicast: OverlapBytes and MulticastRate are required")
	}
	return nil
}

// unicastTime returns Si/ri for one user.
func (p *Problem) unicastTime(i int) float64 {
	u := p.Users[i]
	if u.UnicastRateMbps <= 0 {
		return math.Inf(1)
	}
	return float64(u.RequestBytes) * 8 / (u.UnicastRateMbps * 1e6)
}

// GroupTime evaluates the paper's Tm(k) for a member set. Singletons are
// pure unicast. A zero multicast rate makes the group infeasible (+Inf).
func (p *Problem) GroupTime(members []int) float64 {
	if len(members) == 0 {
		return 0
	}
	if len(members) == 1 {
		return p.unicastTime(members[0])
	}
	rm := p.MulticastRate(members)
	if rm <= 0 {
		return math.Inf(1)
	}
	sm := p.OverlapBytes(members)
	t := float64(sm) * 8 / (rm * 1e6)
	for _, i := range members {
		rest := p.Users[i].RequestBytes - sm
		if rest < 0 {
			rest = 0
		}
		if p.Users[i].UnicastRateMbps <= 0 {
			return math.Inf(1)
		}
		t += float64(rest) * 8 / (p.Users[i].UnicastRateMbps * 1e6)
	}
	return t
}

// PlanTime sums GroupTime over a partition.
func (p *Problem) PlanTime(plan [][]int) float64 {
	total := 0.0
	for _, g := range plan {
		total += p.GroupTime(g)
	}
	return total
}

// Greedy builds a partition by agglomerative merging: start from all
// singletons (pure unicast) and repeatedly apply the pairwise group merge
// with the largest airtime reduction, until no merge helps. Groups with
// high viewport similarity merge first because their shared bytes Sm —
// and hence the multicast saving — are largest.
func (p *Problem) Greedy() ([][]int, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	plan := make([][]int, len(p.Users))
	times := make([]float64, len(p.Users))
	for i := range p.Users {
		plan[i] = []int{i}
		times[i] = p.GroupTime(plan[i])
	}
	for {
		bestA, bestB := -1, -1
		bestGain := 1e-12 // require strictly positive gain
		var bestTime float64
		for a := 0; a < len(plan); a++ {
			for b := a + 1; b < len(plan); b++ {
				merged := append(append([]int{}, plan[a]...), plan[b]...)
				mt := p.GroupTime(merged)
				gain := times[a] + times[b] - mt
				if gain > bestGain {
					bestA, bestB, bestGain, bestTime = a, b, gain, mt
				}
			}
		}
		if bestA < 0 {
			break
		}
		merged := append(append([]int{}, plan[bestA]...), plan[bestB]...)
		slices.Sort(merged)
		// Remove b first (higher index), then replace a.
		plan = append(plan[:bestB], plan[bestB+1:]...)
		times = append(times[:bestB], times[bestB+1:]...)
		plan[bestA] = merged
		times[bestA] = bestTime
	}
	sortPlan(plan)
	return plan, nil
}

// Optimal finds the airtime-minimal partition by subset dynamic
// programming. It is exponential in the user count and guarded to n ≤ 16
// (the paper's scenarios are ≤ 7 users).
//
// Kept: the oracle the grouping tests hold Greedy to.
func (p *Problem) Optimal() ([][]int, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.Users)
	if n == 0 {
		return nil, nil
	}
	if n > 16 {
		return nil, fmt.Errorf("multicast: Optimal limited to 16 users, got %d", n)
	}
	full := 1<<n - 1
	// Precompute group times for all subsets.
	subTime := make([]float64, full+1)
	for mask := 1; mask <= full; mask++ {
		subTime[mask] = p.GroupTime(membersOf(mask))
	}
	dp := make([]float64, full+1)
	choice := make([]int, full+1)
	for mask := 1; mask <= full; mask++ {
		dp[mask] = math.Inf(1)
		// Iterate submasks containing the lowest set bit (canonical
		// decomposition avoids duplicate partitions).
		low := mask & -mask
		for sub := mask; sub > 0; sub = (sub - 1) & mask {
			if sub&low == 0 {
				continue
			}
			t := subTime[sub] + dp[mask^sub]
			if t < dp[mask] {
				dp[mask] = t
				choice[mask] = sub
			}
		}
	}
	var plan [][]int
	for mask := full; mask > 0; {
		sub := choice[mask]
		if sub == 0 { // infeasible everywhere; fall back to singletons
			for _, m := range membersOf(mask) {
				plan = append(plan, []int{m})
			}
			break
		}
		plan = append(plan, membersOf(sub))
		mask ^= sub
	}
	sortPlan(plan)
	return plan, nil
}

// membersOf expands a bitmask into sorted member indices.
func membersOf(mask int) []int {
	var out []int
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			out = append(out, i)
		}
		mask >>= 1
	}
	return out
}

func sortPlan(plan [][]int) {
	for _, g := range plan {
		slices.Sort(g)
	}
	slices.SortStableFunc(plan, func(a, b []int) int {
		if len(a) == 0 || len(b) == 0 {
			return len(b) - len(a)
		}
		return a[0] - b[0]
	})
}
