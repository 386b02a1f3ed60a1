package multicast

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fixedProblem builds a problem with explicit overlap/rate tables.
func fixedProblem(users []User, overlaps map[string]int, rates map[string]float64) *Problem {
	key := func(members []int) string {
		b := make([]byte, len(users))
		for i := range b {
			b[i] = '0'
		}
		for _, m := range members {
			b[m] = '1'
		}
		return string(b)
	}
	return &Problem{
		Users: users,
		OverlapBytes: func(members []int) int {
			return overlaps[key(members)]
		},
		MulticastRate: func(members []int) float64 {
			return rates[key(members)]
		},
	}
}

func TestGroupTimeMatchesPaperFormula(t *testing.T) {
	// Two users: S1=10MB, S2=8MB, overlap Sm=6MB, r1=400, r2=200, rm=300.
	users := []User{
		{ID: 0, RequestBytes: 10_000_000, UnicastRateMbps: 400},
		{ID: 1, RequestBytes: 8_000_000, UnicastRateMbps: 200},
	}
	p := fixedProblem(users,
		map[string]int{"11": 6_000_000},
		map[string]float64{"11": 300})
	got := p.GroupTime([]int{0, 1})
	// Tm = Sm/rm + (S1-Sm)/r1 + (S2-Sm)/r2
	want := 6e6*8/(300e6) + 4e6*8/(400e6) + 2e6*8/(200e6)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GroupTime = %v, want %v", got, want)
	}
	// Singleton: pure unicast.
	if got := p.GroupTime([]int{1}); math.Abs(got-8e6*8/200e6) > 1e-12 {
		t.Errorf("singleton time = %v", got)
	}
	// Empty group: zero.
	if got := p.GroupTime(nil); got != 0 {
		t.Errorf("empty group time = %v", got)
	}
}

func TestGroupTimeInfeasibleRate(t *testing.T) {
	users := []User{
		{ID: 0, RequestBytes: 1000, UnicastRateMbps: 100},
		{ID: 1, RequestBytes: 1000, UnicastRateMbps: 100},
	}
	p := fixedProblem(users, map[string]int{"11": 500}, map[string]float64{"11": 0})
	if got := p.GroupTime([]int{0, 1}); !math.IsInf(got, 1) {
		t.Errorf("zero-rate group time = %v", got)
	}
	// Outage unicast user.
	users[0].UnicastRateMbps = 0
	p2 := fixedProblem(users, nil, nil)
	if got := p2.GroupTime([]int{0}); !math.IsInf(got, 1) {
		t.Errorf("outage unicast time = %v", got)
	}
}

func TestGroupTimeOverlapLargerThanRequest(t *testing.T) {
	// Overlap can't exceed a member's own request; negative rest clamps.
	users := []User{
		{ID: 0, RequestBytes: 100, UnicastRateMbps: 100},
		{ID: 1, RequestBytes: 1000, UnicastRateMbps: 100},
	}
	p := fixedProblem(users, map[string]int{"11": 500}, map[string]float64{"11": 100})
	got := p.GroupTime([]int{0, 1})
	want := 500.0*8/100e6 + 0 + 500.0*8/100e6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GroupTime = %v, want %v", got, want)
	}
}

func TestGreedyMergesHighOverlap(t *testing.T) {
	// Users 0,1 overlap almost fully; user 2 overlaps nobody. Greedy must
	// produce {0,1},{2}.
	users := []User{
		{ID: 0, RequestBytes: 1_000_000, UnicastRateMbps: 300},
		{ID: 1, RequestBytes: 1_000_000, UnicastRateMbps: 300},
		{ID: 2, RequestBytes: 1_000_000, UnicastRateMbps: 300},
	}
	p := fixedProblem(users,
		map[string]int{"110": 900_000, "101": 0, "011": 0, "111": 0},
		map[string]float64{"110": 300, "101": 300, "011": 300, "111": 300})
	plan, err := p.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2}}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("Greedy = %v, want %v", plan, want)
	}
	// The merged plan must beat all-unicast.
	uni := p.PlanTime([][]int{{0}, {1}, {2}})
	if p.PlanTime(plan) >= uni {
		t.Errorf("greedy plan no better than unicast: %v vs %v", p.PlanTime(plan), uni)
	}
}

func TestGreedyAvoidsHarmfulMulticast(t *testing.T) {
	// Big overlap but terrible multicast rate (unbalanced RSS): multicast
	// with the default beam would REDUCE throughput (the paper's Fig. 3e
	// observation), so the scheduler must stay unicast.
	users := []User{
		{ID: 0, RequestBytes: 1_000_000, UnicastRateMbps: 1000},
		{ID: 1, RequestBytes: 1_000_000, UnicastRateMbps: 1000},
	}
	p := fixedProblem(users,
		map[string]int{"11": 900_000},
		map[string]float64{"11": 100}) // weak common MCS
	plan, err := p.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1}}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("Greedy = %v, want %v", plan, want)
	}
}

func TestOptimalNotWorseThanGreedy(t *testing.T) {
	// A case where pairwise-greedy can get stuck: overlaps crafted so the
	// best plan is one triple.
	users := []User{
		{ID: 0, RequestBytes: 2_000_000, UnicastRateMbps: 200},
		{ID: 1, RequestBytes: 2_000_000, UnicastRateMbps: 200},
		{ID: 2, RequestBytes: 2_000_000, UnicastRateMbps: 200},
		{ID: 3, RequestBytes: 2_000_000, UnicastRateMbps: 200},
	}
	overlaps := map[string]int{
		"1100": 1_200_000, "1010": 1_100_000, "1001": 200_000,
		"0110": 1_000_000, "0101": 900_000, "0011": 1_300_000,
		"1110": 1_000_000, "1101": 500_000, "1011": 600_000, "0111": 800_000,
		"1111": 400_000,
	}
	rates := map[string]float64{}
	for k := range overlaps {
		rates[k] = 250
	}
	p := fixedProblem(users, overlaps, rates)
	greedy, err := p.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if p.PlanTime(opt) > p.PlanTime(greedy)+1e-15 {
		t.Errorf("Optimal (%v) worse than Greedy (%v)", p.PlanTime(opt), p.PlanTime(greedy))
	}
	// Optimal also must not be worse than all-unicast or one big group.
	if p.PlanTime(opt) > p.PlanTime([][]int{{0}, {1}, {2}, {3}}) {
		t.Error("Optimal worse than unicast")
	}
	if p.PlanTime(opt) > p.PlanTime([][]int{{0, 1, 2, 3}}) {
		t.Error("Optimal worse than one group")
	}
}

func TestOptimalGuards(t *testing.T) {
	p := &Problem{}
	if _, err := p.Greedy(); err == nil {
		t.Error("missing callbacks accepted")
	}
	users := make([]User, 17)
	p2 := fixedProblem(users, nil, nil)
	if _, err := p2.Optimal(); err == nil {
		t.Error("17 users accepted by Optimal")
	}
	p3 := fixedProblem(nil, nil, nil)
	plan, err := p3.Optimal()
	if err != nil || plan != nil {
		t.Errorf("empty Optimal = %v, %v", plan, err)
	}
}

func TestDeadlineAndFPS(t *testing.T) {
	users := []User{{ID: 0, RequestBytes: 1_000_000, UnicastRateMbps: 240}}
	p := fixedProblem(users, nil, nil)
	plan := [][]int{{0}}
	// 1 MB at 240 Mbps: 8e6/240e6 = 33.3 ms, exactly 1/30 s.
	if pt := p.PlanTime(plan); math.Abs(pt-1.0/30) > 1e-4 {
		t.Errorf("PlanTime = %v, want 1/30 s", pt)
	}
}

func TestMembersOf(t *testing.T) {
	if got := membersOf(0b1011); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("membersOf = %v", got)
	}
	if got := membersOf(0); got != nil {
		t.Errorf("membersOf(0) = %v", got)
	}
}

func BenchmarkOptimal7Users(b *testing.B) {
	users := make([]User, 7)
	for i := range users {
		users[i] = User{ID: i, RequestBytes: 1_000_000 + i*100_000, UnicastRateMbps: 300}
	}
	p := &Problem{
		Users: users,
		OverlapBytes: func(members []int) int {
			return 200_000 * len(members)
		},
		MulticastRate: func(members []int) float64 { return 280 },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Optimal(); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: every plan (greedy or optimal) is an exact partition of the
// users — each user appears in exactly one group.
func TestPropertyPlansPartitionUsers(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rnd.Intn(6)
		users := make([]User, n)
		for i := range users {
			users[i] = User{
				ID:              i,
				RequestBytes:    100_000 + rnd.Intn(2_000_000),
				UnicastRateMbps: 100 + rnd.Float64()*1000,
			}
		}
		p := &Problem{
			Users: users,
			OverlapBytes: func(members []int) int {
				min := users[members[0]].RequestBytes
				for _, m := range members[1:] {
					if users[m].RequestBytes < min {
						min = users[m].RequestBytes
					}
				}
				return int(float64(min) * (0.2 + 0.6*rndFrom(members)))
			},
			MulticastRate: func(members []int) float64 {
				return 80 + 900*rndFrom(members)
			},
		}
		for _, mk := range []func() ([][]int, error){p.Greedy, p.Optimal} {
			plan, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]int{}
			for _, g := range plan {
				for _, m := range g {
					seen[m]++
				}
			}
			if len(seen) != n {
				t.Fatalf("trial %d: plan covers %d of %d users: %v", trial, len(seen), n, plan)
			}
			for m, c := range seen {
				if c != 1 {
					t.Fatalf("trial %d: user %d appears %d times", trial, m, c)
				}
			}
		}
	}
}

// rndFrom derives a deterministic pseudo-random fraction from a member
// set, so the callbacks are stable across calls with the same argument
// (the planner may evaluate a set several times).
func rndFrom(members []int) float64 {
	h := uint64(2166136261)
	for _, m := range members {
		h = (h ^ uint64(m)) * 16777619
	}
	return float64(h%1000) / 1000
}

// Property: Optimal's plan time is a lower bound for Greedy's on the
// same problem.
func TestPropertyOptimalLowerBound(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rnd.Intn(5)
		users := make([]User, n)
		for i := range users {
			users[i] = User{ID: i, RequestBytes: 500_000 + rnd.Intn(1_000_000), UnicastRateMbps: 200 + rnd.Float64()*800}
		}
		p := &Problem{
			Users: users,
			OverlapBytes: func(members []int) int {
				return int(300_000 * rndFrom(members))
			},
			MulticastRate: func(members []int) float64 {
				return 100 + 800*rndFrom(members)
			},
		}
		g, err := p.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		o, err := p.Optimal()
		if err != nil {
			t.Fatal(err)
		}
		if p.PlanTime(o) > p.PlanTime(g)+1e-12 {
			t.Fatalf("trial %d: optimal %v worse than greedy %v", trial, p.PlanTime(o), p.PlanTime(g))
		}
	}
}
