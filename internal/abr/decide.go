package abr

import (
	"volcast/internal/codec"
	"volcast/internal/tier"
	"volcast/internal/vivo"
)

// AtLevel moves every stride of a culled request level steps down the
// ladder along Ladder.Degrade: a simulated user's request and a hub
// subscriber's wants alike. Level 0 is the request itself.
func AtLevel(lad tier.Ladder, req vivo.Request, level int) vivo.Request {
	if level == 0 {
		return req
	}
	out := vivo.Request{Cells: make([]vivo.CellRequest, len(req.Cells))}
	for i, c := range req.Cells {
		c.Stride, _ = lad.Degrade(c.Stride, level)
		out.Cells[i] = c
	}
	return out
}

// User is one user's input to Adapt: its culled request at full density,
// its level, its rate estimate, the bytes the frame planned at that level,
// and the share of the content owed since the last pass that it played.
type User struct {
	Culled        vivo.Request
	Level         int
	PredictedMbps float64
	PlannedBytes  int
	Played        float64
}

// Adapt is the density decision for every user of frame fi of store at
// fps. The current level is priced at its planned bytes, the next one up
// from the store: the culled request one level denser, and the enhancement
// layers between the two. Played stands in for a one-second buffer. Adapt
// returns each user's new level in [0, tier.MaxDegrade], how many levels
// changed, and each user's request at it — its ordered (cell, stride) wants.
func (c *Controller) Adapt(store *vivo.Store, fi, fps int, users []User) (levels []int, switches int, reqs []vivo.Request) {
	lad, size := store.Ladder(), store.SizeOracle(fi)
	levels, reqs = make([]int, len(users)), make([]vivo.Request, len(users))
	for u, in := range users {
		st := State{
			PredictedMbps:  in.PredictedMbps,
			DemandMbps:     codec.BitrateMbps(float64(in.PlannedBytes), fps),
			BufferLevel:    in.Played,
			BufferCapacity: 1,
		}
		if in.Level > 0 {
			cur, up := AtLevel(lad, in.Culled, in.Level), AtLevel(lad, in.Culled, in.Level-1)
			delta := 0
			for i, cr := range up.Cells {
				delta += store.UpgradeBytes(fi, cr.ID, cur.Cells[i].Stride, cr.Stride)
			}
			st.NextUpDemandMbps = codec.BitrateMbps(float64(up.Bytes(size)), fps)
			st.UpgradeDeltaMbps = codec.BitrateMbps(float64(delta), fps)
		}
		levels[u] = in.Level
		switch c.Decide(st) {
		case ActionQualityDown:
			levels[u] = min(in.Level+1, tier.MaxDegrade)
		case ActionQualityUp: // only offered below full density
			levels[u]--
		}
		if levels[u] != in.Level {
			switches++
		}
		reqs[u] = AtLevel(lad, in.Culled, levels[u])
	}
	return levels, switches, reqs
}
