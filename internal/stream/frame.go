package stream

import (
	"context"
	"time"

	"volcast/internal/abr"
	"volcast/internal/blockcache"
	"volcast/internal/codec"
	"volcast/internal/core"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/phy"
	"volcast/internal/vivo"
)

// framePath is the per-frame path the offline evaluation and the session
// simulator both advance by — cull, decode, plan, airtime attribution —
// over one content store on one network.
type framePath struct {
	store   *vivo.Store
	vis     *vivo.Visibility
	planner *core.Planner
	decoder codec.Decoder
	reg     *metrics.Registry
	tr      *obs.Tracer
}

// newFramePath wires the path; the visibility pipeline is built on the
// store's grid with default ViVo parameters, decoding goes through the
// process-wide decode cache.
func newFramePath(store *vivo.Store, net *Network, reg *metrics.Registry, tr *obs.Tracer) framePath {
	pl := core.NewPlanner(net)
	pl.Metrics = reg
	pl.Trace = tr
	return framePath{
		store:   store,
		vis:     vivo.New(store.Grid(), vivo.DefaultParams()),
		planner: pl,
		decoder: codec.Decoder{Cache: blockcache.Cells()},
		reg:     reg,
		tr:      tr,
	}
}

// frameSpec is one frame's input to framePath.step; the slices are indexed
// by user.
type frameSpec struct {
	// seq is the caller's frame number: it picks the content frame (looped
	// over the store) and tags every span.
	seq  int
	mode Mode
	// poses are where the users stand: receive antenna and blocking body.
	poses []geom.Pose
	// views are the viewports to cull for (poses itself, or the predicted
	// poses when fetching ahead).
	views []geom.Pose
	// levels are the users' degrade levels along the store's ladder.
	levels      []int
	customBeams bool
	// decode runs the client render path on every delivered cell.
	decode     bool
	rssOffsets []float64
	// steer, when set, runs between the cull and the plan — the channel
	// still holds the previous frame's bodies — and returns the users whose
	// delivered rate has a floor under it: a steered reflection beam that
	// replaces the swept sector where it is stronger.
	steer func(reqs []vivo.Request) map[int]float64
	// rateCaps, when set, caps each user's delivered rate (0 = uncapped).
	// Floors and caps apply to per-user delivery accounting and airtime
	// attribution, not to the shared MAC schedule.
	rateCaps []float64
}

// frame is what one step produced.
type frame struct {
	// fi is the content frame the step read.
	fi int
	// culled holds what each viewport asks for at full quality; reqs is
	// culled moved down to each user's level, which is what was decoded,
	// planned and delivered.
	culled, reqs []vivo.Request
	plan         *core.FramePlan
}

// step advances one frame. The visibility pipeline only reads shared
// state, and the decode cache's singleflight decodes each distinct block
// once however many viewports overlap, so culling and decoding fan out on
// the par pool by user index. The planner works in scratch of its own:
// it fans each user's link build and unicast sweep out on the same pool,
// then groups them sequentially.
func (p *framePath) step(in frameSpec) (frame, error) {
	n := len(in.poses)
	fr := frame{
		fi:     in.seq % p.store.NumFrames(),
		culled: make([]vivo.Request, n),
		reqs:   make([]vivo.Request, n),
	}
	occ := p.store.Frame(fr.fi).Occupied
	lad := p.store.Ladder()
	visDone := p.reg.Histogram("session.visibility", nil).TimeMillis()
	if err := par.ForEach(context.Background(), n, func(u int) error {
		defer p.tr.Begin(in.seq, u, obs.StageCull).End()
		if in.mode == ModeVanilla {
			fr.culled[u] = vivo.VanillaRequest(occ)
		} else {
			fr.culled[u] = p.vis.Request(occ, in.views[u])
		}
		fr.reqs[u] = abr.AtLevel(lad, fr.culled[u], in.levels[u])
		return nil
	}); err != nil {
		return fr, err
	}
	visDone()

	if in.decode {
		decodeDone := p.reg.Histogram("session.decode", nil).TimeMillis()
		decoded := p.reg.Counter("session.decoded_points")
		if err := par.ForEach(context.Background(), n, func(u int) error {
			defer p.tr.Begin(in.seq, u, obs.StageDecode).End()
			for _, cr := range fr.reqs[u].Cells {
				blk := p.store.Block(fr.fi, cr.ID, cr.Stride)
				if blk == nil {
					continue
				}
				dc, err := p.decoder.Decode(blk.Data)
				if err != nil {
					return err
				}
				decoded.Add(int64(len(dc.Points)))
			}
			return nil
		}); err != nil {
			return fr, err
		}
		decodeDone()
	}

	var floors map[int]float64
	if in.steer != nil {
		floors = in.steer(fr.reqs)
	}
	positions := make([]geom.Vec3, n)
	bodies := make([]phy.Body, n)
	for u, pose := range in.poses {
		positions[u] = pose.Pos
		bodies[u] = phy.DefaultBody(pose.Pos)
	}
	plan, err := p.planner.Plan(in.mode, core.FrameInput{
		Store:        p.store,
		Frame:        fr.fi,
		Requests:     fr.reqs,
		Positions:    positions,
		Bodies:       bodies,
		CustomBeams:  in.customBeams,
		RSSOffsetsDB: in.rssOffsets,
		Seq:          in.seq,
	})
	if err != nil {
		return fr, err
	}
	fr.plan = plan
	for u, floor := range floors {
		if floor > plan.Users[u].UnicastRateMbps {
			plan.Users[u].UnicastRateMbps = floor
		}
	}
	for u, lim := range in.rateCaps {
		if lim > 0 && plan.Users[u].UnicastRateMbps > lim {
			plan.Users[u].UnicastRateMbps = lim
		}
	}
	// Attribute each user's modeled MAC airtime for this frame: the time
	// the user's requested bytes occupy the medium at their delivered rate
	// (the paper's Tm model for singletons). A dead link is clamped to one
	// second so the attribution stays finite (and unmistakably a miss).
	for u := range plan.Users {
		bytes := float64(plan.Users[u].RequestBytes)
		if bytes <= 0 {
			continue
		}
		air := time.Second
		if rate := plan.Users[u].UnicastRateMbps; rate > 0 {
			if d := time.Duration(bytes * 8 / (rate * 1e6) * float64(time.Second)); d < air {
				air = d
			}
		}
		p.tr.RecordModeled(in.seq, u, obs.StageAirtime, air)
	}
	return fr, nil
}

// byteSplit accumulates delivered bytes over frames, split into the
// multicast copies and everything sent.
type byteSplit struct {
	multicast, total float64
}

// add accounts one planned frame of which frac was delivered: a group of
// two or more sends its overlap once, multicast, and each member's
// remainder unicast; a singleton sends its whole request.
func (b *byteSplit) add(plan *core.FramePlan, frac float64) {
	for _, g := range plan.Groups {
		switch {
		case len(g) >= 2:
			sm := float64(plan.OverlapBytes(g))
			b.multicast += sm * frac
			b.total += sm * frac
			for _, m := range g {
				if rest := (float64(plan.Users[m].RequestBytes) - sm) * frac; rest > 0 {
					b.total += rest
				}
			}
		case len(g) == 1:
			b.total += float64(plan.Users[g[0]].RequestBytes) * frac
		}
	}
}

// share returns the multicast fraction of the delivered bytes.
func (b byteSplit) share() float64 {
	if b.total <= 0 {
		return 0
	}
	return b.multicast / b.total
}
