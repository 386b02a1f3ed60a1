package core

import (
	"math"
	"testing"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/phy"
	"volcast/internal/pointcloud"
	"volcast/internal/vivo"
)

func testStore(t testing.TB, frames, points int) *vivo.Store {
	t.Helper()
	video := pointcloud.Stage{Frames: frames, Points: points, Seed: 1}.Video()
	st, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// viewersAt builds requests/positions for viewers watching the content.
func viewersAt(t testing.TB, st *vivo.Store, frame int, positions []geom.Vec3) []vivo.Request {
	t.Helper()
	vis := vivo.New(st.Grid(), vivo.DefaultParams())
	occ := st.Frame(frame).Occupied
	reqs := make([]vivo.Request, len(positions))
	for i, p := range positions {
		look := geom.LookRotation(geom.V(0, 1.2, 0).Sub(p), geom.V(0, 1, 0))
		reqs[i] = vis.Request(occ, geom.Pose{Pos: p, Rot: look})
		if len(reqs[i].Cells) == 0 {
			t.Fatalf("viewer %d sees nothing from %v", i, p)
		}
	}
	return reqs
}

func TestPlannerUnicastSingletons(t *testing.T) {
	st := testStore(t, 2, 20_000)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(net)
	positions := []geom.Vec3{geom.V(-1, 1.5, -2), geom.V(1, 1.5, -2)}
	reqs := viewersAt(t, st, 0, positions)
	plan, err := pl.Plan(ModeViVo, FrameInput{
		Store: st, Frame: 0, Requests: reqs, Positions: positions,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 2 {
		t.Fatalf("groups = %v", plan.Groups)
	}
	for _, g := range plan.Groups {
		if len(g) != 1 {
			t.Fatalf("unicast plan has group %v", g)
		}
	}
	if plan.PlanTime <= 0 || plan.Airtime <= 0 || plan.Airtime > 1 {
		t.Errorf("plan time %v airtime %v", plan.PlanTime, plan.Airtime)
	}
	if fps := plan.AchievableFPS(30); fps <= 0 || fps > 30 {
		t.Errorf("fps = %v", fps)
	}
}

func TestPlannerMulticastGroupsOverlappingViewers(t *testing.T) {
	st := testStore(t, 2, 20_000)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(net)
	// Two viewers shoulder to shoulder: near-total viewport overlap, one
	// default beam covers both → multicast must merge them.
	positions := []geom.Vec3{geom.V(-0.2, 1.5, -2.2), geom.V(0.2, 1.5, -2.2)}
	reqs := viewersAt(t, st, 0, positions)
	plan, err := pl.Plan(ModeMulticast, FrameInput{
		Store: st, Frame: 0, Requests: reqs, Positions: positions, CustomBeams: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 || len(plan.Groups[0]) != 2 {
		t.Fatalf("expected one pair group, got %v", plan.Groups)
	}
	if plan.OverlapBytes(plan.Groups[0]) <= 0 {
		t.Error("no overlap bytes for overlapping viewers")
	}
	// The multicast plan must beat the unicast plan on airtime.
	uni, err := pl.Plan(ModeViVo, FrameInput{
		Store: st, Frame: 0, Requests: reqs, Positions: positions,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PlanTime >= uni.PlanTime {
		t.Errorf("multicast %v not faster than unicast %v", plan.PlanTime, uni.PlanTime)
	}
}

func TestPlannerBlockageReducesRate(t *testing.T) {
	st := testStore(t, 2, 20_000)
	net, err := NewAD()
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(net)
	// Viewer with a blocker standing right in the AP line of sight.
	positions := []geom.Vec3{geom.V(0, 1.5, 0)}
	reqs := viewersAt(t, st, 0, positions)
	clear, err := pl.Plan(ModeViVo, FrameInput{
		Store: st, Frame: 0, Requests: reqs, Positions: positions,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := pl.Plan(ModeViVo, FrameInput{
		Store: st, Frame: 0, Requests: reqs, Positions: positions,
		Bodies: []phy.Body{phy.DefaultBody(geom.V(0, 0, -1.2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Users[0].UnicastRateMbps >= clear.Users[0].UnicastRateMbps {
		t.Errorf("blockage did not reduce rate: %v vs %v",
			blocked.Users[0].UnicastRateMbps, clear.Users[0].UnicastRateMbps)
	}
	// Receiver's own body never blocks its own link.
	self, err := pl.Plan(ModeViVo, FrameInput{
		Store: st, Frame: 0, Requests: reqs, Positions: positions,
		Bodies: []phy.Body{phy.DefaultBody(positions[0])},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(self.Users[0].UnicastRateMbps-clear.Users[0].UnicastRateMbps) > 1e-9 {
		t.Error("own body blocked own link")
	}
}

func TestModeString(t *testing.T) {
	if ModeVanilla.String() != "vanilla" || ModeViVo.String() != "vivo" ||
		ModeMulticast.String() != "multicast" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode name empty")
	}
}

func TestAchievableFPSEdgeCases(t *testing.T) {
	p := &FramePlan{PlanTime: 0, Airtime: 1}
	if got := p.AchievableFPS(30); got != 30 {
		t.Errorf("zero plan time fps = %v", got)
	}
	p2 := &FramePlan{PlanTime: 1, Airtime: 0.9}
	if got := p2.AchievableFPS(30); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("fps = %v", got)
	}
}
