package core

import (
	"math"

	"volcast/internal/beam"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/multicast"
	"volcast/internal/obs"
	"volcast/internal/phy"
	"volcast/internal/vivo"
)

// Mode selects the delivery pipeline.
type Mode int

// The evaluated systems.
const (
	// ModeVanilla downloads every cell of every frame at full density.
	ModeVanilla Mode = iota
	// ModeViVo applies viewport+occlusion+distance optimizations per
	// user with unicast delivery (the multi-user ViVo of Table 1).
	ModeViVo
	// ModeMulticast is the paper's proposal: ViVo visibility plus
	// viewport-similarity multicast grouping with beam design.
	ModeMulticast
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "vanilla"
	case ModeViVo:
		return "vivo"
	case ModeMulticast:
		return "multicast"
	default:
		return "mode?"
	}
}

// FrameInput is everything the planner needs to schedule one frame.
type FrameInput struct {
	// Store is the encoded content; Frame indexes into it.
	Store *vivo.Store
	Frame int
	// Requests holds each user's fetch decision for this frame: the cells
	// in view, each at the stride the user's quality level leaves it.
	Requests []vivo.Request
	// Positions are the users' receive-antenna positions.
	Positions []geom.Vec3
	// Bodies are the blockage cylinders in the room (typically one per
	// user; the planner excludes receivers per link itself).
	Bodies []phy.Body
	// CustomBeams enables multi-lobe beam design for groups.
	CustomBeams bool
	// RSSOffsetsDB optionally perturbs each user's link by a dB offset
	// (small-scale fading); len must equal Requests when non-nil.
	RSSOffsetsDB []float64
	// Seq tags the plan's tracing spans with the caller's frame number
	// (the session step or evaluation frame). It does not affect the plan.
	Seq int
}

// FramePlan is the planner's schedule for one frame.
type FramePlan struct {
	// Groups partitions user indices: singletons are unicast, larger
	// groups multicast their overlapped cells.
	Groups [][]int
	// Users carries the per-user bytes and unicast rates used.
	Users []multicast.User
	// PlanTime is the total airtime (seconds) of the schedule.
	PlanTime float64
	// Airtime is the MAC's post-overhead fraction for this user count.
	Airtime float64

	problem *multicast.Problem
}

// AchievableFPS converts the plan's airtime into a frame rate, capped at
// the content rate.
func (p *FramePlan) AchievableFPS(capFPS float64) float64 {
	if p.PlanTime <= 0 {
		return capFPS
	}
	f := p.Airtime / p.PlanTime
	if f > capFPS {
		return capFPS
	}
	return f
}

// OverlapBytes returns Sm for a member set of the planned frame.
func (p *FramePlan) OverlapBytes(members []int) int {
	return p.problem.OverlapBytes(members)
}

// Planner builds per-frame delivery schedules on one network.
//
// Plan works in scratch the Planner owns and reuses from frame to frame
// (one link response per user, the group-rate memo, the overlap table), so
// a Planner must not be driven from multiple goroutines; parallel
// evaluations each build their own Planner (and Network). Prepare is the
// exception: calls for distinct users may run concurrently (after
// Reserve). A user's link response is kept from frame to frame and
// rebuilt only when their receiver has moved. Plan prepares the users in
// order on the calling goroutine, then groups them: a user's link build
// and sweep are far shorter than what starting a pool worker costs
// (DESIGN.md §14). Blockage never goes through the network's shared
// channel state while planning: who blocks whom is a per-path mask over
// each user's link response. On return the channel's body set is
// in.Bodies, which is what evaluations between plans (the session's
// proactive beam switch, on Link(u) under the channel's bodies) then see.
type Planner struct {
	Net *Network
	// Metrics receives plan timings and airtime stats; nil disables
	// instrumentation (every metrics instrument is nil-safe).
	Metrics *metrics.Registry
	// Trace receives per-frame plan and beam-design spans; nil disables
	// tracing (every tracer method is nil-safe).
	Trace *obs.Tracer

	links   []phy.Link         // per user, rebuilt when their receiver moves
	solo    []sweepScratch     // per user, for their unicast sweep
	group   sweepScratch       // for the group sweeps
	rates   map[uint64]float64 // by groupKey, cleared each frame
	offsets []float64
	overlap overlapTable
}

// NewPlanner returns a planner for the network.
func NewPlanner(net *Network) *Planner {
	return &Planner{Net: net, rates: make(map[uint64]float64)}
}

// overlapTable is the scratch that request intersection works in: one
// mark per cell ID, valid only for the call (epoch) that wrote it.
type overlapTable struct {
	epoch uint64
	marks []overlapMark
}

type overlapMark struct {
	epoch  uint64
	hits   int32 // members seen requesting the cell, in member order
	stride int32 // densest stride among them
}

// bytes returns Sm for a member set: the commonly requested cells,
// counted at the densest stride any member wants (the single multicast
// copy must satisfy the most demanding member).
func (t *overlapTable) bytes(store *vivo.Store, frame int, reqs []vivo.Request, members []int) int {
	if len(members) == 0 {
		return 0
	}
	t.epoch++
	first := reqs[members[0]].Cells
	for _, c := range first {
		if int(c.ID) >= len(t.marks) {
			t.marks = append(t.marks, make([]overlapMark, int(c.ID)+1-len(t.marks))...)
		}
		t.marks[c.ID] = overlapMark{epoch: t.epoch, hits: 1, stride: int32(c.Stride)}
	}
	for seen, m := range members[1:] {
		for _, c := range reqs[m].Cells {
			if int(c.ID) >= len(t.marks) {
				continue
			}
			if mk := &t.marks[c.ID]; mk.epoch == t.epoch && int(mk.hits) == seen+1 {
				mk.hits++
				mk.stride = min(mk.stride, int32(c.Stride))
			}
		}
	}
	total := 0
	for _, c := range first {
		if mk := t.marks[c.ID]; int(mk.hits) == len(members) {
			if b := store.Block(frame, c.ID, int(mk.stride)); b != nil {
				total += b.Size()
			}
		}
	}
	return total
}

// sweepScratch is what membersOf works in.
type sweepScratch struct {
	blockers []phy.Body
	members  []beam.Member
}

// membersOf sweeps each group member's link for a transmission whose
// receivers are the group: every body blocks except those standing where
// a receiver does (within 0.3 m in plan) — a user does not block their
// own link. It touches only sc and the members' links, so calls on
// disjoint groups with scratch of their own may run concurrently.
func (pl *Planner) membersOf(sc *sweepScratch, in FrameInput, group []int) []beam.Member {
	sc.blockers = sc.blockers[:0]
body:
	for _, b := range in.Bodies {
		for _, m := range group {
			rx := in.Positions[m]
			if geom.V(b.Center.X-rx.X, 0, b.Center.Z-rx.Z).Len() < 0.3 {
				continue body
			}
		}
		sc.blockers = append(sc.blockers, b)
	}
	sc.members = sc.members[:0]
	for _, m := range group {
		l := &pl.links[m]
		sc.members = append(sc.members, beam.MemberOn(l, l.BlockedBy(sc.blockers)))
	}
	return sc.members
}

// Reserve sizes the planner's per-user scratch for n users on an
// 802.11ad network, keeping the links it holds. Call it before running
// Prepare concurrently; Plan calls it itself.
func (pl *Planner) Reserve(n int) {
	if n > cap(pl.links) {
		pl.links = append(pl.links[:cap(pl.links)], make([]phy.Link, n-cap(pl.links))...)
	}
	if n > cap(pl.solo) {
		pl.solo = append(pl.solo[:cap(pl.solo)], make([]sweepScratch, n-cap(pl.solo))...)
	}
	pl.links, pl.solo = pl.links[:n], pl.solo[:n]
}

// Prepare readies user u of a frame on an 802.11ad network: it rebuilds
// u's link response if u's receiver (in.Positions[u]) is not the one the
// link was built for, then sweeps it for u's unicast sector under
// in.Bodies, into the link's row memo. It reads only in.Positions and
// in.Bodies, and touches only u's link and sweep scratch, so calls for
// distinct users may run concurrently once Reserve has sized the planner.
// Plan prepares every user itself; a caller that prepares them earlier
// leaves Plan only the lookups, and can read the links (Link) in between.
func (pl *Planner) Prepare(in FrameInput, u int) {
	net := pl.Net
	if l := &pl.links[u]; !l.BuiltFor(net.Radio, net.Codebook, in.Positions[u]) {
		l.Reset(net.Radio, net.Codebook, in.Positions[u])
	}
	self := [1]int{u}
	pl.membersOf(&pl.solo[u], in, self[:])
}

// Link returns user u's link response, as the last Prepare (or Plan) of
// u left it: built toward that frame's in.Positions[u] on the network's
// radio and codebook. It is the planner's own scratch: evaluate it between
// plans, and on one goroutine.
func (pl *Planner) Link(u int) *phy.Link { return &pl.links[u] }

// groupKey encodes an ordered member list of n users as one integer; ok
// is false when the list is too long to fit.
func groupKey(group []int, n int) (key uint64, ok bool) {
	base := uint64(n) + 1
	for _, m := range group {
		if key > (math.MaxUint64-base)/base {
			return 0, false
		}
		key = key*base + uint64(m) + 1
	}
	return key, true
}

// groupRate returns the multicast rate the beam design sustains for the
// group. Within a frame it depends on the member list alone, so it is
// memoised: the greedy merge re-asks the pairs it did not merge every
// round, and PlanTime re-asks the chosen groups. The key keeps the
// members' order because the beam design's float sums do: the same set
// in another order may differ in the last bit.
func (pl *Planner) groupRate(in FrameInput, group []int) float64 {
	key, memo := groupKey(group, len(in.Requests))
	if rate, ok := pl.rates[key]; ok && memo {
		return rate
	}
	// Each fresh rate estimate runs a beam design (the multi-lobe
	// synthesis when CustomBeams is on), so attribute it to the beam stage.
	defer pl.Trace.Begin(in.Seq, obs.PipelineUser, obs.StageBeam).End()
	pl.offsets = pl.offsets[:0]
	if len(in.RSSOffsetsDB) == len(in.Requests) {
		for _, m := range group {
			pl.offsets = append(pl.offsets, in.RSSOffsetsDB[m])
		}
	}
	rate := pl.Net.groupRate(pl.membersOf(&pl.group, in, group), pl.offsets, in.CustomBeams)
	if memo {
		pl.rates[key] = rate
	}
	return rate
}

// Plan schedules one frame under the given mode. For unicast modes the
// partition is all-singletons; for ModeMulticast the greedy
// viewport-similarity grouping of the paper's Tm(k) model runs.
func (pl *Planner) Plan(mode Mode, in FrameInput) (*FramePlan, error) {
	defer pl.Metrics.Histogram("core.plan", nil).TimeMillis()()
	defer pl.Trace.Begin(in.Seq, obs.PipelineUser, obs.StagePlan).End()
	n := len(in.Requests)
	ad := pl.Net.Kind == NetAD
	clear(pl.rates)
	pl.Net.SetBodies(in.Bodies)

	users := make([]multicast.User, n)
	size := in.Store.SizeOracle(in.Frame)
	offset := func(u int) float64 {
		if len(in.RSSOffsetsDB) == n {
			return in.RSSOffsetsDB[u]
		}
		return 0
	}
	for u := range users {
		users[u] = multicast.User{ID: u, RequestBytes: in.Requests[u].Bytes(size)}
		if !ad {
			users[u].UnicastRateMbps = pl.Net.UnicastRateOffset(in.Positions[u], offset(u))
		}
	}
	if ad {
		pl.Reserve(n)
		for u := range users {
			pl.Prepare(in, u)
		}
		for u := range users {
			users[u].UnicastRateMbps = pl.Net.unicastRateAt(pl.solo[u].members[0].RSSDBm + offset(u))
		}
	}

	prob := &multicast.Problem{
		Users: users,
		OverlapBytes: func(members []int) int {
			return pl.overlap.bytes(in.Store, in.Frame, in.Requests, members)
		},
		MulticastRate: func(members []int) float64 {
			if !ad {
				return pl.Net.basicMulticastRate()
			}
			return pl.groupRate(in, members)
		},
		RateCeilingMbps: pl.Net.rateCeiling(),
	}
	var groups [][]int
	if mode == ModeMulticast {
		var err error
		groups, err = prob.Greedy()
		if err != nil {
			return nil, err
		}
	} else {
		groups = make([][]int, n)
		for u := range groups {
			groups[u] = []int{u}
		}
	}
	planTime := prob.PlanTime(groups)
	pl.Metrics.Counter("core.frames_planned").Inc()
	pl.Metrics.Histogram("core.frame_airtime_ms", nil).Observe(planTime * 1000)
	return &FramePlan{
		Groups:   groups,
		Users:    users,
		PlanTime: planTime,
		Airtime:  pl.Net.MAC.AirtimeFrac(n),
		problem:  prob,
	}, nil
}
