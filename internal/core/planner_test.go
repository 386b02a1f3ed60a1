package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"volcast/internal/geom"
	"volcast/internal/par"
	"volcast/internal/phy"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// studyFrame builds the planner input for n users of the synthetic study
// at one step: their requests on the store, their bodies as blockers and
// a fading offset each.
func studyFrame(st *vivo.Store, study *trace.Study, fading []*phy.Fading, n, step int, custom bool) FrameInput {
	vis := vivo.New(st.Grid(), vivo.DefaultParams())
	fi := step % st.NumFrames()
	in := FrameInput{Store: st, Frame: fi, CustomBeams: custom, Seq: step}
	for u := 0; u < n; u++ {
		pose := study.Traces[u].PoseAt(step)
		in.Requests = append(in.Requests, vis.Request(st.Frame(fi).Occupied, pose))
		in.Positions = append(in.Positions, pose.Pos)
		in.Bodies = append(in.Bodies, phy.DefaultBody(pose.Pos))
		in.RSSOffsetsDB = append(in.RSSOffsetsDB, fading[u].Step(1.0/30))
	}
	return in
}

// TestPlanMatchesReferenceBitExact drives one Planner (scratch carried
// from frame to frame) and the pre-kernel reference over study frames
// with 2–7 users, fading on, custom beams on and off, and requires the
// same groups, the same per-user bytes and rates and the same plan time,
// to the bit.
func TestPlanMatchesReferenceBitExact(t *testing.T) {
	frames := 60
	if testing.Short() {
		frames = 12
	}
	st := testStore(t, 3, 20_000)
	study := trace.GenerateStudy(30*frames+1, 1)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	refNet, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	fading := make([]*phy.Fading, 7)
	for u := range fading {
		fading[u] = phy.NewFading(int64(100 + u))
	}
	pl := NewPlanner(net)
	multi := 0
	for f := 0; f < frames; f++ {
		n, custom := 2+f%6, f/6%2 == 0
		in := studyFrame(st, study, fading, n, 30*f, custom) // one frame a second: the users move
		got, err := pl.Plan(ModeMulticast, in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refPlan(refNet, ModeMulticast, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("frame %d (%d users, custom %v): groups %v, reference %v", f, n, custom, got.Groups, want.Groups)
		}
		if !reflect.DeepEqual(got.Users, want.Users) {
			t.Fatalf("frame %d (%d users, custom %v): users %+v, reference %+v", f, n, custom, got.Users, want.Users)
		}
		if got.PlanTime != want.PlanTime {
			t.Fatalf("frame %d (%d users, custom %v): plan time %v, reference %v", f, n, custom, got.PlanTime, want.PlanTime)
		}
		for _, g := range got.Groups {
			if len(g) > 1 {
				multi++
			}
			if sm, ref := got.OverlapBytes(g), refOverlapBytes(st, in.Frame, in.Requests, g); sm != ref {
				t.Fatalf("frame %d group %v: overlap %d bytes, reference %d", f, g, sm, ref)
			}
		}
	}
	if multi == 0 {
		t.Error("no frame formed a multicast group")
	}
}

// TestPlanWidthParity drives TestPlanMatchesReferenceBitExact's frames
// through a Planner at pool widths 1, 2 and 8 — its link builds and
// unicast sweeps fan out on the pool — and requires the same plans.
func TestPlanWidthParity(t *testing.T) {
	defer par.SetWorkers(0)
	frames := 60
	if testing.Short() {
		frames = 12
	}
	st := testStore(t, 3, 20_000)
	study := trace.GenerateStudy(30*frames+1, 1)
	var want []FramePlan
	for _, w := range []int{1, 2, 8} {
		par.SetWorkers(w)
		net, err := NewAD()
		if err != nil {
			t.Fatal(err)
		}
		fading := make([]*phy.Fading, 7)
		for u := range fading {
			fading[u] = phy.NewFading(int64(100 + u))
		}
		pl := NewPlanner(net)
		for f := 0; f < frames; f++ {
			n, custom := 2+f%6, f/6%2 == 0
			plan, err := pl.Plan(ModeMulticast, studyFrame(st, study, fading, n, 30*f, custom))
			if err != nil {
				t.Fatal(err)
			}
			got := FramePlan{Groups: plan.Groups, Users: plan.Users, PlanTime: plan.PlanTime, Airtime: plan.Airtime}
			if w == 1 {
				want = append(want, got)
			} else if !reflect.DeepEqual(got, want[f]) {
				t.Fatalf("width %d frame %d (%d users, custom %v): plan %+v, width 1 %+v", w, f, n, custom, got, want[f])
			}
		}
	}
}

// samePlan fails the test unless got has want's groups, users and plan
// time, to the bit.
func samePlan(t *testing.T, what string, got, want *FramePlan) {
	t.Helper()
	if !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.Users, want.Users) || got.PlanTime != want.PlanTime {
		t.Fatalf("%s: plan %v %+v %v, fresh planner %v %+v %v", what, got.Groups, got.Users, got.PlanTime, want.Groups, want.Users, want.PlanTime)
	}
}

// TestPlanPrepareMatchesFresh drives TestPlanMatchesReferenceBitExact's
// frames, at pool widths 1 and 8, through planners that keep their links
// from frame to frame, and requires every plan to equal a fresh planner's:
// one whose users are prepared in a fan-out before Plan, as Prepare's
// contract allows (the stream step prepares them in a loop); one that
// plans alone; and one that plans each frame and then
// a second frame whose users stand where they stood, so that every link
// is carried over, under the bodies of half a second later (moved) or of
// the same frame (not moved).
func TestPlanPrepareMatchesFresh(t *testing.T) {
	defer par.SetWorkers(0)
	frames := 60
	if testing.Short() {
		frames = 12
	}
	st := testStore(t, 3, 20_000)
	study := trace.GenerateStudy(30*frames+16, 1)
	for _, w := range []int{1, 8} {
		par.SetWorkers(w)
		net, err := NewAD()
		if err != nil {
			t.Fatal(err)
		}
		freshNet, err := NewAD()
		if err != nil {
			t.Fatal(err)
		}
		fresh := func(in FrameInput) *FramePlan {
			plan, err := NewPlanner(freshNet).Plan(ModeMulticast, in)
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}
		plan := func(pl *Planner, in FrameInput) *FramePlan {
			got, err := pl.Plan(ModeMulticast, in)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		fading := make([]*phy.Fading, 7)
		for u := range fading {
			fading[u] = phy.NewFading(int64(100 + u))
		}
		prepared, alone, carried := NewPlanner(net), NewPlanner(net), NewPlanner(net)
		for f := 0; f < frames; f++ {
			n, custom := 2+f%6, f/6%2 == 0
			in := studyFrame(st, study, fading, n, 30*f, custom)
			want := fresh(in)

			prepared.Reserve(n)
			if err := par.ForEach(context.Background(), n, func(u int) error {
				prepared.Prepare(in, u)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			samePlan(t, fmt.Sprintf("width %d frame %d prepared", w, f), plan(prepared, in), want)
			samePlan(t, fmt.Sprintf("width %d frame %d alone", w, f), plan(alone, in), want)

			samePlan(t, fmt.Sprintf("width %d frame %d carried", w, f), plan(carried, in), want)
			later := studyFrame(st, study, fading, n, 30*f+15, custom)
			later.Positions = in.Positions
			if f%2 == 0 {
				later.Bodies = in.Bodies
			}
			for u := 0; u < n; u++ {
				if !carried.links[u].BuiltFor(net.Radio, net.Codebook, later.Positions[u]) {
					t.Fatalf("width %d frame %d: user %d's link was not kept", w, f, u)
				}
			}
			samePlan(t, fmt.Sprintf("width %d frame %d carried, bodies moved %v", w, f, f%2 == 1), plan(carried, later), fresh(later))
		}
	}
}

// TestPreparedLinkMatchesReference holds the session's proactive beam
// switch, which evaluates the link Prepare left for user u (Planner.Link)
// under the channel's bodies, to the Radio calls it replaced and to the
// pre-kernel trace: over study frames with 2–6 users, first- and
// second-order reflections, and channel bodies that are the previous
// frame's (as in a session) or seeded draws with a body on some user's
// line of sight, the best path's direction and the RSS of a beam steered
// along it must be ==. Some draws must block paths and move the best path
// off the LOS.
func TestPreparedLinkMatchesReference(t *testing.T) {
	st := testStore(t, 2, 20_000)
	study := trace.GenerateStudy(30*24+16, 1)
	rnd := rand.New(rand.NewSource(40))
	fading := make([]*phy.Fading, 6)
	for u := range fading {
		fading[u] = phy.NewFading(int64(1 + u))
	}
	blockedSeen, offLOS := 0, 0
	for _, second := range []bool{false, true} {
		net, err := NewAD()
		if err != nil {
			t.Fatal(err)
		}
		net.Radio.Channel.SecondOrder = second
		tx := net.Radio.Array.Pos
		pl := NewPlanner(net)
		var prev []phy.Body
		for f := 0; f < 24; f++ {
			n := 2 + f%5
			in := studyFrame(st, study, fading, n, 30*f+7, f%3 == 0)
			bodies := prev
			if f%2 == 1 {
				rx := in.Positions[rnd.Intn(n)]
				bodies = []phy.Body{phy.DefaultBody(tx.Add(rx.Sub(tx).Scale(0.8)))}
				for k := rnd.Intn(5); k > 0; k-- {
					bodies = append(bodies, phy.DefaultBody(geom.V(rnd.Float64()*8-4, 0, rnd.Float64()*7-3.5)))
				}
			}
			net.SetBodies(bodies)
			pl.Reserve(n)
			for u := 0; u < n; u++ {
				pl.Prepare(in, u)
			}
			for u, rx := range in.Positions {
				l := pl.Link(u)
				blocked := l.BlockedBy(net.Radio.Channel.Bodies)
				dir, ok := l.BestPathDir(blocked)
				if rdir, rok := net.Radio.BestPathDir(rx); dir != rdir || ok != rok {
					t.Fatalf("second order %v, frame %d, user %d: Link.BestPathDir %v %v, Radio.BestPathDir %v %v", second, f, u, dir, ok, rdir, rok)
				}
				if wdir, wok := refBestPathDir(net.Radio, rx); dir != wdir || ok != wok {
					t.Fatalf("second order %v, frame %d, user %d: Link.BestPathDir %v %v, reference %v %v", second, f, u, dir, ok, wdir, wok)
				}
				w := net.Radio.Array.SteerTo(dir)
				got := l.RSS(w, blocked)
				if want := net.Radio.RSS(w, rx); got != want {
					t.Fatalf("second order %v, frame %d, user %d: Link.RSS %v, Radio.RSS %v", second, f, u, got, want)
				}
				if want := refRSS(net.Radio, w, rx); got != want {
					t.Fatalf("second order %v, frame %d, user %d: Link.RSS %v, reference %v", second, f, u, got, want)
				}
				if blocked != 0 {
					blockedSeen++
				}
				if dir != rx.Sub(tx).Norm() {
					offLOS++
				}
			}
			if _, err := pl.Plan(ModeMulticast, in); err != nil {
				t.Fatal(err)
			}
			prev = in.Bodies
		}
	}
	if blockedSeen == 0 || offLOS == 0 {
		t.Fatalf("%d links with blocked paths, %d best paths off the LOS: both must be positive", blockedSeen, offLOS)
	}
	t.Logf("%d links with blocked paths, %d best paths off the LOS", blockedSeen, offLOS)
}

// TestPlanRebuildsMovedLink moves one receiver by one ulp between two
// plans: that user's link must be the one not kept, it must be rebuilt,
// and the plan must equal a fresh planner's.
func TestPlanRebuildsMovedLink(t *testing.T) {
	st := testStore(t, 2, 20_000)
	study := trace.GenerateStudy(31, 1)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	fading := []*phy.Fading{phy.NewFading(1), phy.NewFading(2), phy.NewFading(3)}
	in := studyFrame(st, study, fading, 3, 30, true)
	pl := NewPlanner(net)
	if _, err := pl.Plan(ModeMulticast, in); err != nil {
		t.Fatal(err)
	}
	moved := in
	moved.Positions = append([]geom.Vec3(nil), in.Positions...)
	moved.Positions[1].Z = math.Nextafter(moved.Positions[1].Z, math.Inf(1))
	for u, want := range []bool{true, false, true} {
		if got := pl.links[u].BuiltFor(net.Radio, net.Codebook, moved.Positions[u]); got != want {
			t.Fatalf("before the plan, user %d's link is kept: %v, want %v", u, got, want)
		}
	}
	got, err := pl.Plan(ModeMulticast, moved)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.links[1].BuiltFor(net.Radio, net.Codebook, moved.Positions[1]) {
		t.Fatal("the moved receiver's link was not rebuilt")
	}
	want, err := NewPlanner(net).Plan(ModeMulticast, moved)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "one ulp moved", got, want)
}

// TestPlanLeavesChannelBodies pins Plan's post-condition: whatever it did
// with blockage while planning, the network's channel holds the frame's
// own body set afterwards, for direct Radio calls between plans.
func TestPlanLeavesChannelBodies(t *testing.T) {
	st := testStore(t, 2, 20_000)
	study := trace.GenerateStudy(31, 1)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	fading := []*phy.Fading{phy.NewFading(1), phy.NewFading(2), phy.NewFading(3)}
	pl := NewPlanner(net)
	net.SetBodies([]phy.Body{phy.DefaultBody(geom.V(3, 0, 3))})
	for _, mode := range []Mode{ModeViVo, ModeMulticast} {
		in := studyFrame(st, study, fading, 3, 30, true)
		if _, err := pl.Plan(mode, in); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(net.Radio.Channel.Bodies, in.Bodies) {
			t.Errorf("%v: channel bodies after Plan = %v, want the frame's %v", mode, net.Radio.Channel.Bodies, in.Bodies)
		}
	}
}

// planAllocBudget is the steady-state allocation ceiling of one 4-user
// multicast plan with custom beams (measured 137 at pool widths 1 and 2,
// with its links kept or every link rebuilt:
// the beam designs' weight vectors and RSS slices, the greedy merge's
// member lists, the plan itself).
const planAllocBudget = 200

func TestPlanSteadyStateAllocs(t *testing.T) {
	st := testStore(t, 2, 20_000)
	study := trace.GenerateStudy(31, 1)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	fading := []*phy.Fading{phy.NewFading(1), phy.NewFading(2), phy.NewFading(3), phy.NewFading(4)}
	in := studyFrame(st, study, fading, 4, 30, true)
	pl := NewPlanner(net)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := pl.Plan(ModeMulticast, in); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per 4-user plan", allocs)
	if allocs > planAllocBudget {
		t.Errorf("%.0f allocs per plan, budget %d", allocs, planAllocBudget)
	}
}

// TestPlanRebuildAllocs holds the path a simulated session takes every
// frame to the same ceiling: two study steps alternate, so every user
// has moved and every link is rebuilt by Plan, at pool widths 1 and 2.
func TestPlanRebuildAllocs(t *testing.T) {
	defer par.SetWorkers(0)
	st := testStore(t, 2, 20_000)
	study := trace.GenerateStudy(32, 1)
	fading := []*phy.Fading{phy.NewFading(1), phy.NewFading(2), phy.NewFading(3), phy.NewFading(4)}
	ins := [2]FrameInput{studyFrame(st, study, fading, 4, 30, true), studyFrame(st, study, fading, 4, 31, true)}
	for u := range ins[0].Positions {
		if ins[0].Positions[u] == ins[1].Positions[u] {
			t.Fatalf("user %d stands still between the two steps", u)
		}
	}
	for _, w := range []int{1, 2} {
		par.SetWorkers(w)
		net, err := NewAD()
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPlanner(net)
		i := 0
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := pl.Plan(ModeMulticast, ins[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("width %d: %.0f allocs per 4-user plan, every link rebuilt", w, allocs)
		if allocs > planAllocBudget {
			t.Errorf("width %d: %.0f allocs per plan with every link rebuilt, budget %d", w, allocs, planAllocBudget)
		}
	}
}

func benchmarkPlan(b *testing.B, users int) {
	st := testStore(b, 2, 20_000)
	study := trace.GenerateStudy(32, 1)
	net, err := NewAD()
	if err != nil {
		b.Fatal(err)
	}
	fading := make([]*phy.Fading, users)
	for u := range fading {
		fading[u] = phy.NewFading(int64(u))
	}
	ins := [2]FrameInput{studyFrame(st, study, fading, users, 30, true), studyFrame(st, study, fading, users, 31, true)}
	pl := NewPlanner(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Plan(ModeMulticast, ins[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan times the cross-layer planner's frame step: multicast
// grouping with custom beams and fading, planner scratch warm. The users
// move every frame (two study steps alternate), so every link is rebuilt,
// as in a simulated session.
func BenchmarkPlan(b *testing.B) {
	b.Run("users=4", func(b *testing.B) { benchmarkPlan(b, 4) })
	b.Run("users=7", func(b *testing.B) { benchmarkPlan(b, 7) })
}

// TestRateCeilingBoundsPlannedRates holds the ceiling Plan passes to the
// greedy merge to what it bounds, over study frames of 4 and 7 users with
// fading on and custom beams on and off, on both networks: every unicast
// rate, and the group rate of every ordered member list of two or more
// the merge could ask (each set in sorted order and in the greedy's
// merged orders alike: every ordered pair, and at 4 users every ordered
// triple), is at most the ceiling. The bound would otherwise prune a merge that wins.
func TestRateCeilingBoundsPlannedRates(t *testing.T) {
	st := testStore(t, 2, 20_000)
	study := trace.GenerateStudy(121, 1)
	fading := make([]*phy.Fading, 7)
	for u := range fading {
		fading[u] = phy.NewFading(int64(200 + u))
	}
	for _, mk := range []func() (*Network, error){NewAD, NewAC} {
		net, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if want := net.MAC.Config().TransportCapMbps; net.Kind == NetAD && net.rateCeiling() != want {
			t.Errorf("802.11ad ceiling %v, want the transport cap %v", net.rateCeiling(), want)
		}
		pl := NewPlanner(net)
		atCeiling := 0
		for f := 0; f < 8; f++ {
			n, custom := []int{4, 7}[f%2], f/2%2 == 0
			in := studyFrame(st, study, fading, n, 15*f, custom)
			fp, err := pl.Plan(ModeMulticast, in)
			if err != nil {
				t.Fatal(err)
			}
			ceiling := fp.problem.RateCeilingMbps
			if ceiling != net.rateCeiling() || ceiling <= 0 {
				t.Fatalf("%v frame %d: Plan passed ceiling %v, network's is %v", net.Kind, f, ceiling, net.rateCeiling())
			}
			for _, u := range fp.Users {
				if u.UnicastRateMbps > ceiling {
					t.Errorf("%v frame %d: user %d unicast rate %v above the ceiling %v", net.Kind, f, u.ID, u.UnicastRateMbps, ceiling)
				}
				if u.UnicastRateMbps == ceiling {
					atCeiling++
				}
			}
			lists := [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if b != a {
						lists = append(lists, []int{a, b})
					}
					for c := 0; n == 4 && b != a && c < n; c++ {
						if c != a && c != b {
							lists = append(lists, []int{a, b, c})
						}
					}
				}
			}
			for _, g := range lists {
				if rm := fp.problem.MulticastRate(g); rm > ceiling {
					t.Errorf("%v frame %d: group %v rate %v above the ceiling %v", net.Kind, f, g, rm, ceiling)
				}
			}
		}
		if atCeiling == 0 {
			t.Errorf("%v: no unicast rate reached the ceiling; the sweep shows no rate near it", net.Kind)
		}
	}
}
