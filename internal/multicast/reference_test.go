package multicast

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refGreedy is Greedy as it stood before the merge was bounded: every
// round prices every pair, in (a, b) order, and keeps the first pair of
// the largest gain. It is the oracle the bounded scan is held to.
func refGreedy(p *Problem) ([][]int, error) {
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

// The shapes genProblem can give a problem, as bits that combine.
const (
	shapeZeroCeiling = 1 << iota // RateCeilingMbps 0
	shapeDuplicates              // users come in few classes: exact gain ties
	shapeNoOverlap               // every Sm is 0
	shapeOutages                 // some unicast and multicast rates are 0
	shapeAtCeiling               // most multicast rates equal the ceiling
	shapeOrdered                 // the multicast rate depends on member order
	shapeCoarse                  // every time is a multiple of 0.5 s: unrelated pairs tie exactly
)

// genProblem builds a problem of n users from a seed. Its callbacks are
// pure functions of their argument, as the planner's are within a
// frame. Sm depends on the member set, the rate on the set (or, with
// shapeOrdered, the list); both look only at the members' classes, so
// users of one class are interchangeable and their pairs tie exactly.
// Every multicast rate is at most the ceiling; with shapeZeroCeiling the
// problem just does not say so. With shapeCoarse every rate is 0.5, 1 or
// 2 Mbps and every byte count a multiple of 125 000, so every time and
// every sum of them is exact.
func genProblem(seed int64, n int, shape int) *Problem {
	rnd := rand.New(rand.NewSource(seed))
	classes := n
	if shape&shapeDuplicates != 0 {
		classes = 1 + rnd.Intn(3)
	}
	coarse := shape&shapeCoarse != 0
	ceiling := []float64{1302, 380, 2, 1000}[rnd.Intn(4)]
	if coarse {
		ceiling = 2
	}
	class := make([]int, n)
	users := make([]User, n)
	reqs := make([]int, classes)
	unis := make([]float64, classes)
	for k := range reqs {
		reqs[k] = 125_000 * (1 + rnd.Intn(16))
		switch {
		case shape&shapeOutages != 0 && rnd.Intn(4) == 0:
			unis[k] = 0
		case rnd.Intn(4) == 0:
			unis[k] = ceiling
		case coarse:
			unis[k] = 1
		default:
			unis[k] = ceiling * float64(1+rnd.Intn(8)) / 8
		}
	}
	for i := range users {
		class[i] = rnd.Intn(classes)
		users[i] = User{ID: i, RequestBytes: reqs[class[i]], UnicastRateMbps: unis[class[i]]}
	}
	salt := uint64(rnd.Int63())
	hash := func(members []int, ordered bool) uint64 {
		ks := make([]int, len(members))
		for i, m := range members {
			ks[i] = class[m]
		}
		if !ordered {
			slices.Sort(ks)
		}
		h := salt
		for _, k := range ks {
			h = (h ^ uint64(k+1)) * 1099511628211
		}
		return h ^ h>>29
	}
	p := &Problem{
		Users: users,
		OverlapBytes: func(members []int) int {
			if shape&shapeNoOverlap != 0 {
				return 0
			}
			least := users[members[0]].RequestBytes
			for _, m := range members[1:] {
				least = min(least, users[m].RequestBytes)
			}
			if coarse {
				return 125_000 * int(hash(members, false)%uint64(least/125_000+1))
			}
			return least * int(hash(members, false)%9) / 8
		},
		MulticastRate: func(members []int) float64 {
			h := hash(members, shape&shapeOrdered != 0) >> 7
			switch {
			case shape&shapeOutages != 0 && h%5 == 0:
				return 0
			case shape&shapeAtCeiling != 0 && h%4 != 0:
				return ceiling
			case coarse:
				return []float64{0.5, 1, 2}[h%3]
			default:
				return ceiling * float64(1+h%16) / 16
			}
		},
		RateCeilingMbps: ceiling,
	}
	if shape&shapeZeroCeiling != 0 {
		p.RateCeilingMbps = 0
	}
	return p
}

// countRates wraps p's MulticastRate with a call counter.
func countRates(p *Problem) (*Problem, *int) {
	calls := new(int)
	q := *p
	q.MulticastRate = func(members []int) float64 {
		*calls++
		return p.MulticastRate(members)
	}
	return &q, calls
}

// greedyMatchesReference requires Greedy's partition and PlanTime bits to
// equal refGreedy's on p, with no more MulticastRate calls, and returns
// both call counts.
func greedyMatchesReference(t *testing.T, what string, p *Problem) (calls, refCalls int) {
	t.Helper()
	gp, gotCalls := countRates(p)
	got, err := gp.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	rp, refCount := countRates(p)
	want, err := refGreedy(rp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Greedy %v, reference %v", what, got, want)
	}
	if g, w := p.PlanTime(got), p.PlanTime(want); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: plan time %v, reference %v", what, g, w)
	}
	if *gotCalls > *refCount {
		t.Fatalf("%s: %d MulticastRate calls, reference %d", what, *gotCalls, *refCount)
	}
	return *gotCalls, *refCount
}

// TestGreedyMatchesReference holds the bounded merge to the full scan
// over seeded problems of 1–9 users in every shape: exact ties between
// duplicated users and between unrelated pairs, Sm = 0, zero unicast and
// multicast rates, rates at the ceiling, a zero ceiling, and rates that
// depend on member order.
// Over the whole sweep the bound must also save calls.
func TestGreedyMatchesReference(t *testing.T) {
	var saved, total int
	for shape := 0; shape < 1<<7; shape++ {
		for n := 1; n <= 9; n++ {
			for seed := int64(0); seed < 4; seed++ {
				calls, ref := greedyMatchesReference(t, "problem", genProblem(seed*1000+int64(n), n, shape))
				saved += ref - calls
				total += ref
			}
		}
	}
	t.Logf("%d of %d MulticastRate calls saved", saved, total)
	if saved == 0 {
		t.Error("the bound saved no MulticastRate call")
	}
}

// FuzzGreedyMatchesReference is TestGreedyMatchesReference over fuzzed
// seeds, sizes and shapes.
func FuzzGreedyMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(7), uint8(shapeDuplicates))
	f.Add(int64(3), uint8(9), uint8(shapeDuplicates|shapeAtCeiling))
	f.Add(int64(4), uint8(5), uint8(shapeZeroCeiling|shapeOutages))
	f.Add(int64(5), uint8(6), uint8(shapeNoOverlap|shapeOrdered))
	f.Add(int64(6), uint8(8), uint8(shapeCoarse|shapeAtCeiling))
	f.Fuzz(func(t *testing.T, seed int64, n, shape uint8) {
		greedyMatchesReference(t, "fuzzed problem", genProblem(seed, 1+int(n)%9, int(shape)))
	})
}

// TestGreedyTieAtBound is the case a prune that skips a pair whose bound
// only equals the best gain so far gets wrong. Pairs {0,1} and {0,2} save
// exactly 6 s each. {0,1} runs at the ceiling, so its bound is its gain,
// 6; {0,2} runs at half the ceiling, so its bound is 9 and it is priced
// first. The answer is still {0,1}: an equal gain goes to the first pair.
func TestGreedyTieAtBound(t *testing.T) {
	// 1 MB at 1 Mbps is 8 s; every time below is a whole number of
	// seconds, so the sums are exact.
	users := []User{
		{ID: 0, RequestBytes: 1_000_000, UnicastRateMbps: 1},
		{ID: 1, RequestBytes: 1_000_000, UnicastRateMbps: 1},
		{ID: 2, RequestBytes: 1_000_000, UnicastRateMbps: 1},
	}
	p := fixedProblem(users,
		map[string]int{"110": 500_000, "101": 750_000, "011": 0, "111": 500_000},
		map[string]float64{"110": 2, "101": 1, "011": 2, "111": 0})
	p.RateCeilingMbps = 2
	for _, c := range []struct {
		members     []int
		gain, bound float64
	}{{[]int{0, 1}, 6, 6}, {[]int{0, 2}, 6, 9}} {
		sum := p.GroupTime(c.members[:1]) + p.GroupTime(c.members[1:])
		gain := sum - p.GroupTime(c.members)
		bound := sum - p.floor(c.members, p.OverlapBytes(c.members))
		if gain != c.gain || bound != c.bound {
			t.Fatalf("pair %v: gain %v bound %v, want %v and %v", c.members, gain, bound, c.gain, c.bound)
		}
	}
	greedyMatchesReference(t, "tie at the bound", p)
	plan, err := p.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 1}, {2}}; !reflect.DeepEqual(plan, want) {
		t.Errorf("Greedy = %v, want %v", plan, want)
	}
}
