package multiap

import (
	"testing"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/core"
	"volcast/internal/geom"
	"volcast/internal/phy"
	"volcast/internal/pointcloud"
	"volcast/internal/vivo"
)

func testStore(t testing.TB, points int) *vivo.Store {
	t.Helper()
	video := pointcloud.Stage{Frames: 2, Points: points, Seed: 1}.Video()
	st, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func requestsFor(t testing.TB, st *vivo.Store, positions []geom.Vec3) []vivo.Request {
	t.Helper()
	vis := vivo.New(st.Grid(), vivo.DefaultParams())
	occ := st.Frame(0).Occupied
	reqs := make([]vivo.Request, len(positions))
	for i, p := range positions {
		look := geom.LookRotation(geom.V(0, 1.2, 0).Sub(p), geom.V(0, 1, 0))
		reqs[i] = vis.Request(occ, geom.Pose{Pos: p, Rot: look})
	}
	return reqs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("0 APs accepted")
	}
	if _, err := New(5); err == nil {
		t.Error("5 APs accepted")
	}
	for n := 1; n <= 4; n++ {
		sys, err := New(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(sys.APs) != n {
			t.Fatalf("n=%d: %d APs", n, len(sys.APs))
		}
	}
}

func TestAssociatePicksNearestWall(t *testing.T) {
	sys, err := New(2) // front wall (z=-4) and back wall (z=+4)
	if err != nil {
		t.Fatal(err)
	}
	positions := []geom.Vec3{
		geom.V(0, 1.5, -2.5), // near front AP
		geom.V(0, 1.5, 2.5),  // near back AP
	}
	assign := sys.Associate(positions)
	if assign[0] != 0 || assign[1] != 1 {
		t.Errorf("assignment = %v, want [0 1]", assign)
	}
}

func TestTwoAPsEnableSpatialReuse(t *testing.T) {
	st := testStore(t, 60_000)
	// Users split across the room, watching the content at the origin.
	positions := []geom.Vec3{
		geom.V(-1, 1.5, -2.5), geom.V(1, 1.5, -2.5), // front pair
		geom.V(-1, 1.5, 2.5), geom.V(1, 1.5, 2.5), // back pair
	}
	reqs := requestsFor(t, st, positions)

	one, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := one.PlanFrame(core.ModeViVo, st, 0, reqs, positions, nil, false, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	two, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := two.PlanFrame(core.ModeViVo, st, 0, reqs, positions, nil, false, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Concurrent {
		t.Errorf("opposite-wall APs not concurrent (SIR %.1f dB)", p2.MinSIRdB)
	}
	if p2.FPS <= p1.FPS {
		t.Errorf("2 APs (%.1f FPS) not faster than 1 AP (%.1f FPS)", p2.FPS, p1.FPS)
	}
	// Roughly a 2x capacity win when the split is even.
	if p2.FPS < p1.FPS*1.5 {
		t.Errorf("spatial reuse gain too small: %.1f vs %.1f", p2.FPS, p1.FPS)
	}
}

func TestSingleAPNoInterference(t *testing.T) {
	st := testStore(t, 20_000)
	positions := []geom.Vec3{geom.V(0, 1.5, -2)}
	reqs := requestsFor(t, st, positions)
	sys, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.PlanFrame(core.ModeViVo, st, 0, reqs, positions, nil, false, 30)
	if err != nil {
		t.Fatal(err)
	}
	if p.Concurrent {
		t.Error("single AP flagged concurrent")
	}
	if p.MinSIRdB < 100 {
		t.Errorf("single AP SIR = %v, want sentinel", p.MinSIRdB)
	}
	if p.FPS <= 0 || p.FPS > 30 {
		t.Errorf("FPS = %v", p.FPS)
	}
}

func TestPlanFrameValidation(t *testing.T) {
	st := testStore(t, 5_000)
	sys, _ := New(1)
	if _, err := sys.PlanFrame(core.ModeViVo, st, 0, make([]vivo.Request, 2), make([]geom.Vec3, 1), nil, false, 30); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// No users: plan caps at the target.
	p, err := sys.PlanFrame(core.ModeViVo, st, 0, nil, nil, nil, false, 30)
	if err != nil {
		t.Fatal(err)
	}
	if p.FPS != 30 {
		t.Errorf("empty plan FPS = %v", p.FPS)
	}
}

func TestBlockageAffectsSharedChannel(t *testing.T) {
	st := testStore(t, 20_000)
	positions := []geom.Vec3{geom.V(1.5, 1.5, 2.0)}
	reqs := requestsFor(t, st, positions)
	sys, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	clear, err := sys.PlanFrame(core.ModeViVo, st, 0, reqs, positions, nil, false, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	blocker := []phy.Body{phy.DefaultBody(geom.V(1.125, 0, 0.5))}
	blocked, err := sys.PlanFrame(core.ModeViVo, st, 0, reqs, positions, blocker, false, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.FPS >= clear.FPS {
		t.Errorf("blockage did not slow the plan: %.1f vs %.1f", blocked.FPS, clear.FPS)
	}
}
