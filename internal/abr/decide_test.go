package abr

import (
	"testing"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/pointcloud"
	"volcast/internal/tier"
	"volcast/internal/vivo"
)

// decideWorld builds a one-frame layered store over three rungs and the
// request of a viewer who sees every occupied cell.
func decideWorld(t testing.TB) (*vivo.Store, vivo.Request) {
	t.Helper()
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 20_000, Seed: 1})
	b, ok := video.Bounds()
	if !ok {
		t.Fatal("no bounds")
	}
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	store, err := vivo.BuildStore(video, g, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	return store, vivo.VanillaRequest(store.Frame(0).Occupied)
}

// plannedBytes is what the planner prices a request at level.
func plannedBytes(store *vivo.Store, req vivo.Request, level int) int {
	return AtLevel(store.Ladder(), req, level).Bytes(store.SizeOracle(0))
}

func TestAdaptNeverRaisesFullDensity(t *testing.T) {
	store, req := decideWorld(t)
	c := NewController(DefaultConfig())
	levels, switches, _ := c.Adapt(store, 0, 30, []User{{Culled: req, PredictedMbps: 1e9, PlannedBytes: plannedBytes(store, req, 0), Played: 1}})
	if levels[0] != 0 || switches != 0 {
		t.Errorf("level 0 with unbounded headroom moved to %d (%d switches)", levels[0], switches)
	}
}

func TestAdaptSaturatesAtMaxDegrade(t *testing.T) {
	store, req := decideWorld(t)
	c := NewController(DefaultConfig())
	users := []User{
		{Culled: req, Level: tier.MaxDegrade - 1, PlannedBytes: plannedBytes(store, req, tier.MaxDegrade-1)},
		{Culled: req, Level: tier.MaxDegrade, PlannedBytes: plannedBytes(store, req, tier.MaxDegrade)},
	}
	levels, switches, reqs := c.Adapt(store, 0, 30, users)
	if levels[0] != tier.MaxDegrade || levels[1] != tier.MaxDegrade || switches != 1 {
		t.Errorf("starved users at %d and %d moved to %v with %d switches, want both at %d and 1 switch",
			tier.MaxDegrade-1, tier.MaxDegrade, levels, switches, tier.MaxDegrade)
	}
	coarsest := store.Ladder().StrideAt(store.Ladder().Rungs() - 1)
	for _, cr := range reqs[1].Cells {
		if cr.Stride != coarsest {
			t.Fatalf("cell %v at stride %d, want the ladder's coarsest, %d", cr.ID, cr.Stride, coarsest)
		}
	}
}

func TestAdaptEmptyRequestNeverMoves(t *testing.T) {
	store, _ := decideWorld(t)
	c := NewController(DefaultConfig())
	for level := 0; level <= tier.MaxDegrade; level++ {
		for _, rate := range []float64{0, 1e9} {
			for _, played := range []float64{0, 1} {
				levels, switches, reqs := c.Adapt(store, 0, 30, []User{{Level: level, PredictedMbps: rate, Played: played}})
				if levels[0] != level || switches != 0 || len(reqs[0].Cells) != 0 {
					t.Errorf("empty request at level %d (rate %v, played %v) moved to %d, %d switches, %d wants",
						level, rate, played, levels[0], switches, len(reqs[0].Cells))
				}
			}
		}
	}
}

// TestAdaptPricesUpgradeByDelta: a store's tiers are prefixes of one
// layered block, so the current level's store price plus the upgrade delta
// is exactly the next level's, and the two prices coincide while the
// demand is the store's price (as in the simulator). They part when the
// demand is measured below it: Adapt then prices the upgrade at demand
// plus delta, which admits an upgrade the full rung refuses.
func TestAdaptPricesUpgradeByDelta(t *testing.T) {
	store, req := decideWorld(t)
	c := NewController(DefaultConfig())
	cur, up := plannedBytes(store, req, 1), plannedBytes(store, req, 0)
	delta := 0
	full, coarse := AtLevel(store.Ladder(), req, 0), AtLevel(store.Ladder(), req, 1)
	for i, cr := range full.Cells {
		delta += store.UpgradeBytes(0, cr.ID, coarse.Cells[i].Stride, cr.Stride)
	}
	if delta <= 0 || cur+delta != up {
		t.Fatalf("%d B at level 1 + %d B delta != %d B at level 0", cur, delta, up)
	}
	// Demand measured at half the store's price; a rate between the two
	// upgrade prices clears the delta's headroom and not the full rung's.
	demand := cur / 2
	mbps := func(b int) float64 { return codec.BitrateMbps(float64(b), 30) }
	rate := DefaultConfig().UpHeadroom * (mbps(demand+delta) + mbps(up)) / 2
	st := State{PredictedMbps: rate, DemandMbps: mbps(demand), NextUpDemandMbps: mbps(up), BufferLevel: 1, BufferCapacity: 1}
	if got := c.Decide(st); got != ActionNone {
		t.Fatalf("full-rung pricing = %v, want none", got)
	}
	levels, switches, _ := c.Adapt(store, 0, 30, []User{{Culled: req, Level: 1, PredictedMbps: rate, PlannedBytes: demand, Played: 1}})
	if levels[0] != 0 || switches != 1 {
		t.Errorf("delta-priced upgrade moved level 1 to %d (%d switches), want 0", levels[0], switches)
	}
}

func TestAtLevelZeroAllocates(t *testing.T) {
	store, req := decideWorld(t)
	lad := store.Ladder()
	if n := testing.AllocsPerRun(100, func() { _ = AtLevel(lad, req, 0) }); n != 0 {
		t.Errorf("AtLevel at level 0 allocates %v times, want 0", n)
	}
}
