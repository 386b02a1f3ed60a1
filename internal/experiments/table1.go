// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (multi-user FPS, vanilla vs ViVo, 802.11ac vs
// 802.11ad), Fig. 2a (pairwise IoU over time), Fig. 2b (IoU CDFs across
// devices, cell sizes and group sizes), Fig. 3b (common-RSS CDF of the
// default codebook for multicast groups), Fig. 3d (default vs customized
// multi-lobe beams) and Fig. 3e (normalized throughput of unicast vs
// multicast variants). Each generator returns structured rows/series plus
// a Render helper that prints them the way the paper reports them.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/stream"
	"volcast/internal/trace"
	"volcast/internal/vivo"
)

// Table1Config scopes the Table 1 reproduction.
type Table1Config struct {
	// WithMulticast adds the proposed system (viewport-similarity
	// multicast + custom beams) as a third column — the paper's thesis
	// applied to its own motivating table.
	WithMulticast bool
	// Frames is the evaluation window (paper streams the whole video;
	// a 10-frame window already averages the animation).
	Frames int
	// Seed drives content and trace generation.
	Seed int64
	// Scale shrinks the quality ladder's point counts for fast test
	// runs (1 = the paper's 330K/430K/550K).
	Scale float64
	// MaxADUsers / MaxACUsers bound the user sweeps (paper: 7 and 3).
	MaxADUsers, MaxACUsers int
}

// DefaultTable1Config reproduces the paper's full table.
//
// Kept: TestExperimentsDocMatchesTable1 renders the full table with it
// and requires the result verbatim in EXPERIMENTS.md.
func DefaultTable1Config() Table1Config {
	return Table1Config{Frames: 10, Seed: 1, Scale: 1, MaxADUsers: 7, MaxACUsers: 3}
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	// Net is "ac" or "ad".
	Net string
	// Users is the concurrent viewer count.
	Users int
	// PerUserRateMbps is the measured per-user delivery rate (col. 2).
	PerUserRateMbps float64
	// VanillaFPS and ViVoFPS hold the capped FPS per quality rung
	// (330K, 430K, 550K).
	VanillaFPS, ViVoFPS [3]float64
	// MulticastFPS is the proposed system's column (only filled when
	// Table1Config.WithMulticast is set, and only for 802.11ad where the
	// beam design applies).
	MulticastFPS [3]float64
}

// table1World builds the single-soldier content ladder and the seated
// user row the testbed used: clients between the AP and the content.
func table1World(cfg Table1Config) (map[pointcloud.Quality]*vivo.Store, *trace.Study, error) {
	stores := make(map[pointcloud.Quality]*vivo.Store, 3)
	for _, q := range pointcloud.Qualities() {
		pts := int(float64(q.Points()) * cfg.Scale)
		video := pointcloud.Stage{Frames: cfg.Frames, Points: pts, Performers: 1, Seed: cfg.Seed}.Video()
		st, err := vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 3, 4})
		if err != nil {
			return nil, nil, err
		}
		stores[q] = st
	}
	return stores, table1Study(cfg.Frames), nil
}

// table1Study models the paper's testbed clients: stationary seats,
// equidistant from the AP (an arc centered on the AP, so no client sits
// in another's line of sight and everyone trains to a strong sector),
// all watching the soldier at the origin with small head motion.
func table1Study(frames int) *trace.Study {
	const (
		seats    = 8
		apZ      = -4.0 // front wall (phy.DefaultRoom)
		apRadius = 2.4  // seat distance from the AP
	)
	study := &trace.Study{}
	for u := 0; u < seats; u++ {
		theta := geom.Rad(-42 + 84*float64(u)/float64(seats-1))
		pos := geom.V(apRadius*math.Sin(theta), 1.4, apZ+apRadius*math.Cos(theta))
		tr := &trace.Trace{UserID: u, Device: trace.DevicePhone, Hz: 30}
		for f := 0; f < frames; f++ {
			t := float64(f) / 30
			// Seated viewing: millimetric sway, gaze tracking the
			// soldier's upper body.
			jitter := geom.V(0.01*math.Sin(2*t+float64(u)), 0.005*math.Sin(3*t), 0.01*math.Cos(1.7*t+float64(u)))
			p := pos.Add(jitter)
			gaze := geom.V(0.2*math.Sin(0.5*t), 1.35, 0).Sub(p).Norm()
			tr.Samples = append(tr.Samples, trace.Sample{
				T:    t,
				Pose: geom.Pose{Pos: p, Rot: geom.LookRotation(gaze, geom.V(0, 1, 0))},
			})
		}
		study.Traces = append(study.Traces, tr)
	}
	return study
}

// Table1 regenerates the paper's Table 1.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = 10
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.MaxADUsers <= 0 {
		cfg.MaxADUsers = 7
	}
	if cfg.MaxACUsers <= 0 {
		cfg.MaxACUsers = 3
	}
	stores, study, err := table1World(cfg)
	if err != nil {
		return nil, err
	}
	decode := codec.DecodeRate{
		// The client decode ceiling scales with the content scale: the
		// paper's laptops decode 550K points at 30 FPS.
		PointsPerSecond: float64(pointcloud.QualityHigh.Points()) * cfg.Scale * 30,
	}

	// One work item per table row. Each row builds its own Network models
	// (the planner mutates the network's blockage set while evaluating),
	// while the stores and the study are shared read-only — so the rows
	// fan out on the par pool and merge by index.
	type rowSpec struct {
		kind stream.NetworkKind
		name string
		n    int
	}
	var specs []rowSpec
	for _, netKind := range []stream.NetworkKind{stream.NetAC, stream.NetAD} {
		maxUsers := cfg.MaxACUsers
		name := "ac"
		if netKind == stream.NetAD {
			maxUsers = cfg.MaxADUsers
			name = "ad"
		}
		for n := 1; n <= maxUsers; n++ {
			specs = append(specs, rowSpec{kind: netKind, name: name, n: n})
		}
	}
	return par.Map(context.Background(), len(specs), func(i int) (Table1Row, error) {
		spec := specs[i]
		row := Table1Row{Net: spec.name, Users: spec.n}
		for qi, q := range pointcloud.Qualities() {
			var net *stream.Network
			var err error
			if spec.kind == stream.NetAD {
				net, err = stream.NewAD()
			} else {
				net, err = stream.NewAC()
			}
			if err != nil {
				return Table1Row{}, err
			}
			ev := stream.NewEvaluator(stores[q], study, net)
			van, err := ev.EvalFPS(stream.EvalConfig{
				Mode: stream.ModeVanilla, Users: spec.n, TargetFPS: 30, DecodeRate: decode,
			})
			if err != nil {
				return Table1Row{}, err
			}
			viv, err := ev.EvalFPS(stream.EvalConfig{
				Mode: stream.ModeViVo, Users: spec.n, TargetFPS: 30, DecodeRate: decode,
			})
			if err != nil {
				return Table1Row{}, err
			}
			row.VanillaFPS[qi] = van.FPS
			row.ViVoFPS[qi] = viv.FPS
			if cfg.WithMulticast && spec.kind == stream.NetAD {
				mc, err := ev.EvalFPS(stream.EvalConfig{
					Mode: stream.ModeMulticast, CustomBeams: true,
					Users: spec.n, TargetFPS: 30, DecodeRate: decode,
				})
				if err != nil {
					return Table1Row{}, err
				}
				row.MulticastFPS[qi] = mc.FPS
			}
			if qi == 0 {
				row.PerUserRateMbps = van.PerUserRateMbps *
					net.MAC.AirtimeFrac(spec.n) / float64(spec.n)
			}
		}
		return row, nil
	})
}

// RenderTable1 formats the rows like the paper's Table 1, appending the
// proposed-system column when it was computed.
func RenderTable1(rows []Table1Row) string {
	withMC := false
	for _, r := range rows {
		if r.MulticastFPS != ([3]float64{}) {
			withMC = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %-10s | %-7s %-7s %-7s | %-7s %-7s %-7s",
		"net", "users", "rate Mbps", "van330K", "van430K", "van550K",
		"vivo330", "vivo430", "vivo550")
	if withMC {
		fmt.Fprintf(&b, " | %-7s %-7s %-7s", "mc330", "mc430", "mc550")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %-6d %-10.0f | %-7.1f %-7.1f %-7.1f | %-7.1f %-7.1f %-7.1f",
			r.Net, r.Users, r.PerUserRateMbps,
			r.VanillaFPS[0], r.VanillaFPS[1], r.VanillaFPS[2],
			r.ViVoFPS[0], r.ViVoFPS[1], r.ViVoFPS[2])
		if withMC {
			if r.MulticastFPS == ([3]float64{}) {
				fmt.Fprintf(&b, " | %-7s %-7s %-7s", "-", "-", "-")
			} else {
				fmt.Fprintf(&b, " | %-7.1f %-7.1f %-7.1f",
					r.MulticastFPS[0], r.MulticastFPS[1], r.MulticastFPS[2])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
