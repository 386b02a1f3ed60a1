package core

import (
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
// multicast plan with custom beams (measured 148: the beam designs'
// weight vectors and RSS slices, the greedy merge's member lists, the
// plan itself).
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

func benchmarkPlan(b *testing.B, users int) {
	st := testStore(b, 2, 20_000)
	study := trace.GenerateStudy(31, 1)
	net, err := NewAD()
	if err != nil {
		b.Fatal(err)
	}
	fading := make([]*phy.Fading, users)
	for u := range fading {
		fading[u] = phy.NewFading(int64(u))
	}
	in := studyFrame(st, study, fading, users, 30, true)
	pl := NewPlanner(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Plan(ModeMulticast, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan times the cross-layer planner's frame step: multicast
// grouping with custom beams and fading, planner scratch warm.
func BenchmarkPlan(b *testing.B) {
	b.Run("users=4", func(b *testing.B) { benchmarkPlan(b, 4) })
	b.Run("users=7", func(b *testing.B) { benchmarkPlan(b, 7) })
}
