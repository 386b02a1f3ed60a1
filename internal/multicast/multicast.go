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
	"cmp"
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
	// OverlapBytes returns Sm ≥ 0 for a member set (indices into Users).
	OverlapBytes func(members []int) int
	// MulticastRate returns rm (Mbps) for a member set — what the beam
	// designer + common-MCS rule sustain. Return 0 when the group cannot
	// be served reliably (forces unicast).
	MulticastRate func(members []int) float64
	// RateCeilingMbps is at least every rate MulticastRate returns.
	// Greedy prices a candidate group's shared bytes at it to bound the
	// merge's gain before it asks MulticastRate; 0 prices them at nothing,
	// a looser bound that is still valid.
	RateCeilingMbps float64
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
	return p.groupTime(members, p.OverlapBytes(members))
}

// groupTime is GroupTime for two or more members whose Sm is sm.
func (p *Problem) groupTime(members []int, sm int) float64 {
	rm := p.MulticastRate(members)
	if rm <= 0 {
		return math.Inf(1)
	}
	return p.timeAt(members, sm, rm)
}

// timeAt is Tm(k) for two or more members sharing sm bytes at rm Mbps:
// the shared bytes first, then each member's leftover bytes at their
// unicast rate, in member order. A +Inf rm prices the shared bytes at
// nothing.
func (p *Problem) timeAt(members []int, sm int, rm float64) float64 {
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

// floor is a lower bound on groupTime(members, sm) that asks no rate:
// timeAt at the rate ceiling. Float multiplication, division and
// addition round monotonically, sm ≥ 0 and rm ≤ RateCeilingMbps, so the
// shared term is no larger and the same leftover terms follow in the
// same order: the bound holds bit for bit.
func (p *Problem) floor(members []int, sm int) float64 {
	ceil := p.RateCeilingMbps
	if ceil <= 0 {
		ceil = math.Inf(1)
	}
	return p.timeAt(members, sm, ceil)
}

// PlanTime sums GroupTime over a partition.
func (p *Problem) PlanTime(plan [][]int) float64 {
	total := 0.0
	for _, g := range plan {
		total += p.GroupTime(g)
	}
	return total
}

// minGain is the airtime a merge must save to be applied: anything
// strictly above it.
const minGain = 1e-12

// candidate is one pair of groups in a merge round: gain ≤ bound.
type candidate struct {
	bound float64
	a, b  int
	sm    int
}

// Greedy builds a partition by agglomerative merging: start from all
// singletons (pure unicast) and repeatedly apply the pairwise group merge
// with the largest airtime reduction, until no merge helps. Groups with
// high viewport similarity merge first because their shared bytes Sm —
// and hence the multicast saving — are largest.
//
// A round bounds every pair's gain by its floor (times[a] + times[b] −
// floor ≥ the gain, bit for bit) and prices pairs best bound first, only
// while a pair could still win: a strictly greater gain wins, and an
// equal gain goes to the lexicographically first pair (a, b), as in a
// scan of all pairs in (a, b) order. So MulticastRate runs only for
// pairs that could change the answer. The member lists Greedy passes to
// the callbacks live in scratch it reuses: they must not keep them.
func (p *Problem) Greedy() ([][]int, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.Users)
	plan := make([][]int, n)
	times := make([]float64, n)
	for i := range p.Users {
		plan[i] = []int{i}
		times[i] = p.GroupTime(plan[i])
	}
	merged := make([]int, 0, n)
	cands := make([]candidate, 0, n*(n-1)/2)
	for {
		cands = cands[:0]
		for a := 0; a < len(plan); a++ {
			for b := a + 1; b < len(plan); b++ {
				merged = append(append(merged[:0], plan[a]...), plan[b]...)
				sm := p.OverlapBytes(merged)
				// NaN (a member with no unicast link) fails the test too.
				if bound := times[a] + times[b] - p.floor(merged, sm); bound > minGain {
					cands = append(cands, candidate{bound: bound, a: a, b: b, sm: sm})
				}
			}
		}
		slices.SortFunc(cands, func(x, y candidate) int { return cmp.Compare(y.bound, x.bound) })
		bestA, bestB := -1, -1
		bestGain := minGain
		var bestTime float64
		for _, c := range cands {
			if c.bound < bestGain {
				break
			}
			if c.bound == bestGain && !firstPair(c.a, c.b, bestA, bestB) {
				continue
			}
			merged = append(append(merged[:0], plan[c.a]...), plan[c.b]...)
			mt := p.groupTime(merged, c.sm)
			gain := times[c.a] + times[c.b] - mt
			if gain > bestGain || gain == bestGain && firstPair(c.a, c.b, bestA, bestB) {
				bestA, bestB, bestGain, bestTime = c.a, c.b, gain, mt
			}
		}
		if bestA < 0 {
			break
		}
		group := append(append([]int{}, plan[bestA]...), plan[bestB]...)
		slices.Sort(group)
		// Remove b first (higher index), then replace a.
		plan = append(plan[:bestB], plan[bestB+1:]...)
		times = append(times[:bestB], times[bestB+1:]...)
		plan[bestA] = group
		times[bestA] = bestTime
	}
	sortPlan(plan)
	return plan, nil
}

// firstPair reports whether pair (a, b) comes before the best pair so
// far, (bestA, bestB), in scan order; with no best yet (bestA < 0) it
// does not, since a first winner must clear minGain strictly.
func firstPair(a, b, bestA, bestB int) bool {
	return bestA >= 0 && (a < bestA || a == bestA && b < bestB)
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
