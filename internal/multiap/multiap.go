// Package multiap implements the paper's multi-AP coordination extension
// (§5): several mmWave APs on different walls serve disjoint client sets
// concurrently, exploiting the directionality of 60 GHz beams for spatial
// reuse. The package provides max-RSS association, per-AP frame planning
// (via the core planner), and a pairwise signal-to-interference check
// that decides whether the APs' service periods can overlap in time or
// must be serialized.
package multiap

import (
	"fmt"
	"math"

	"volcast/internal/beam"
	"volcast/internal/core"
	"volcast/internal/geom"
	"volcast/internal/mac"
	"volcast/internal/phy"
	"volcast/internal/vivo"
)

// System is a set of coordinated mmWave APs sharing one room.
type System struct {
	// APs are the per-AP network models (all 802.11ad).
	APs []*core.Network
	// MinSIRdB is the signal-to-interference margin required to run two
	// APs' transmissions concurrently (typical directional links tolerate
	// interference ~10-15 dB below signal).
	MinSIRdB float64

	channel *phy.Channel
	// planners holds one frame planner per AP, so each keeps its scratch
	// from frame to frame.
	planners []*core.Planner
}

// New places n APs (n in 1..4) on distinct walls of the default room,
// boresight pointing inward, all sharing one channel (so one blocker set
// affects every AP's rays).
func New(n int) (*System, error) {
	if n < 1 || n > 4 {
		return nil, fmt.Errorf("multiap: %d APs unsupported (1..4)", n)
	}
	room := phy.DefaultRoom()
	ch := phy.NewChannel(room)
	b := room.Bounds
	mounts := []struct {
		pos geom.Vec3
		rot geom.Quat
	}{
		{geom.V(0, 2.5, b.Min.Z), geom.QuatIdent()},                            // front wall, faces +Z
		{geom.V(0, 2.5, b.Max.Z), geom.AxisAngle(geom.V(0, 1, 0), math.Pi)},    // back wall, faces -Z
		{geom.V(b.Min.X, 2.5, 0), geom.AxisAngle(geom.V(0, 1, 0), math.Pi/2)},  // left wall, faces +X
		{geom.V(b.Max.X, 2.5, 0), geom.AxisAngle(geom.V(0, 1, 0), -math.Pi/2)}, // right wall, faces -X
	}
	sys := &System{MinSIRdB: 12, channel: ch}
	for i := 0; i < n; i++ {
		arr, err := phy.NewArray(8, 4, mounts[i].pos, mounts[i].rot)
		if err != nil {
			return nil, err
		}
		radio := phy.NewRadio(arr, ch)
		cb := phy.DefaultCodebook(arr, phy.DefaultCodebookConfig())
		sched, err := mac.NewScheduler(mac.DefaultAD())
		if err != nil {
			return nil, err
		}
		ap := &core.Network{
			Kind:     core.NetAD,
			MAC:      sched,
			Radio:    radio,
			Codebook: cb,
			Designer: beam.NewDesigner(radio, cb),
		}
		sys.APs = append(sys.APs, ap)
		sys.planners = append(sys.planners, core.NewPlanner(ap))
	}
	return sys, nil
}

// SetBodies updates the shared blockage set.
func (s *System) SetBodies(bodies []phy.Body) { s.channel.SetBodies(bodies) }

// Associate assigns each user position to the AP giving it the highest
// swept-sector RSS (the standard max-RSS association rule).
func (s *System) Associate(positions []geom.Vec3) []int {
	out := make([]int, len(positions))
	for u, p := range positions {
		best, bestRSS := 0, math.Inf(-1)
		for i, ap := range s.APs {
			_, rss := ap.Radio.SweepBestSector(ap.Codebook, p)
			if rss > bestRSS {
				best, bestRSS = i, rss
			}
		}
		out[u] = best
	}
	return out
}

// Plan is the coordinated schedule of one frame.
type Plan struct {
	// Assignment maps user index → AP index.
	Assignment []int
	// PerAP holds each AP's frame plan over its own users (nil when the
	// AP has no users this frame).
	PerAP []*core.FramePlan
	// Concurrent reports whether the SIR check allowed the APs to
	// transmit simultaneously.
	Concurrent bool
	// MinSIRdB is the worst pairwise signal-to-interference observed.
	MinSIRdB float64
	// FPS is the achievable frame rate of the coordinated schedule.
	FPS float64
}

// PlanFrame builds per-AP plans for the users and decides concurrency.
// All users read from one store/frame; a user's quality is the strides of
// its request.
func (s *System) PlanFrame(mode core.Mode, store *vivo.Store, frame int, reqs []vivo.Request, positions []geom.Vec3, bodies []phy.Body, customBeams bool, capFPS float64) (*Plan, error) {
	if len(reqs) != len(positions) {
		return nil, fmt.Errorf("multiap: %d requests, %d positions", len(reqs), len(positions))
	}
	s.SetBodies(bodies)
	assign := s.Associate(positions)

	plan := &Plan{Assignment: assign, PerAP: make([]*core.FramePlan, len(s.APs))}
	perAPUsers := make([][]int, len(s.APs))
	for u, ap := range assign {
		perAPUsers[ap] = append(perAPUsers[ap], u)
	}
	var planTimes []float64
	for i, users := range perAPUsers {
		if len(users) == 0 {
			continue
		}
		subReqs := make([]vivo.Request, len(users))
		subPos := make([]geom.Vec3, len(users))
		for j, u := range users {
			subReqs[j] = reqs[u]
			subPos[j] = positions[u]
		}
		p, err := s.planners[i].Plan(mode, core.FrameInput{
			Store: store, Frame: frame,
			Requests: subReqs, Positions: subPos, Bodies: bodies,
			CustomBeams: customBeams,
		})
		if err != nil {
			return nil, err
		}
		plan.PerAP[i] = p
		planTimes = append(planTimes, p.PlanTime/p.Airtime)
	}
	if len(planTimes) == 0 {
		plan.FPS = capFPS
		return plan, nil
	}

	plan.MinSIRdB = s.worstSIR(assign, positions)
	plan.Concurrent = len(planTimes) > 1 && plan.MinSIRdB >= s.MinSIRdB

	if plan.Concurrent || len(planTimes) == 1 {
		// Spatial reuse: the slowest AP bounds the frame rate.
		worst := 0.0
		for _, t := range planTimes {
			if t > worst {
				worst = t
			}
		}
		plan.FPS = capFPSAt(worst, capFPS)
	} else {
		// Interference too high: serialize the APs' service periods.
		total := 0.0
		for _, t := range planTimes {
			total += t
		}
		plan.FPS = capFPSAt(total, capFPS)
	}
	return plan, nil
}

func capFPSAt(planTime, capFPS float64) float64 {
	if planTime <= 0 {
		return capFPS
	}
	f := 1 / planTime
	if f > capFPS {
		return capFPS
	}
	return f
}

// worstSIR returns the minimum signal-to-interference ratio over all
// users, where the interference at user u is the strongest signal any
// *other* AP would leak onto u while serving its own users (beams steered
// at its own users, worst case).
func (s *System) worstSIR(assign []int, positions []geom.Vec3) float64 {
	worst := math.Inf(1)
	for u, ap := range assign {
		// Serving signal.
		_, sig := s.APs[ap].Radio.SweepBestSector(s.APs[ap].Codebook, positions[u])
		// Strongest leak from other APs' beams toward their users.
		interf := math.Inf(-1)
		for v, ap2 := range assign {
			if ap2 == ap {
				continue
			}
			w := s.APs[ap2].Radio.Array.SteerTo(
				positions[v].Sub(s.APs[ap2].Radio.Array.Pos).Norm())
			if leak := s.APs[ap2].Radio.RSS(w, positions[u]); leak > interf {
				interf = leak
			}
		}
		if math.IsInf(interf, -1) {
			continue // no other active AP
		}
		if sir := sig - interf; sir < worst {
			worst = sir
		}
	}
	if math.IsInf(worst, 1) {
		return 200 // single AP: no interference
	}
	return worst
}
