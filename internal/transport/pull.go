package transport

import (
	"context"
	"fmt"
	"net"
	"time"

	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/trace"
	"volcast/internal/wire"
)

// PullClientConfig configures a pull-mode player: the client runs its own
// visibility pipeline over the grid the server advertises in Welcome and
// requests exactly the cells its (predicted) viewport needs — the
// DASH-like operation mode, as opposed to the server-push mode RunClient
// uses.
type PullClientConfig struct {
	// Addr is the server address.
	Addr string
	// ID identifies the client.
	ID uint32
	// Scene selects the hub session to join (0 = the default scene).
	Scene uint32
	// Trace drives the 6DoF pose stream (nil = static origin pose).
	Trace *trace.Trace
	// Duration bounds the session.
	Duration time.Duration
	// Stride is the density rung to request (distance-based LOD is the
	// server's job in push mode; pull clients choose per request).
	Stride uint8
	// Decode enables full decoding of received cells.
	Decode bool
	// Layers advertises HelloFlagLayers and attaches held-prefix tokens
	// to requests: cells the client already holds at a sufficient layer
	// prefix come back as enhancement-only deltas (or fewer bytes when
	// already current) instead of full re-sends.
	Layers bool
	// FrameTimeout bounds the wait for one frame's response burst. A
	// server that dropped the frame's FrameComplete (full queue) costs
	// one frame, not the rest of the session (0 = 4 frame intervals,
	// min 250ms).
	FrameTimeout time.Duration
	// Dial overrides the connection factory (nil = plain TCP dial); the
	// injection point for faultnet wrappers.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// RunPullClient connects in pull mode, requests frustum-visible cells for
// each frame at the content rate, and returns playback statistics.
//
// Lost responses do not wedge the session: each frame's drain is bounded
// by FrameTimeout, stale messages from an abandoned frame are skipped,
// and a newer frame's messages resync the loop to that frame.
func RunPullClient(ctx context.Context, cfg PullClientConfig) (ClientStats, error) {
	var stats ClientStats
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	helloFlags := wire.HelloFlagPull
	if cfg.Layers {
		helloFlags |= wire.HelloFlagLayers
	}
	conn, rd, welcome, err := join(ctx, cfg.Dial, cfg.Addr,
		&wire.Hello{ClientID: cfg.ID, Name: "pull", Flags: helloFlags, Scene: cfg.Scene}, nil)
	if err != nil {
		return stats, err
	}
	defer conn.Close()

	// Rebuild the partition grid from the advertised geometry.
	dims := welcome.GridDims
	if welcome.CellSize <= 0 || dims[0] == 0 || dims[1] == 0 || dims[2] == 0 {
		return stats, fmt.Errorf("transport: server advertised no grid (old server?)")
	}
	bounds := geom.AABB{
		Min: welcome.GridOrigin,
		Max: welcome.GridOrigin.Add(geom.V(
			float64(dims[0])*welcome.CellSize,
			float64(dims[1])*welcome.CellSize,
			float64(dims[2])*welcome.CellSize,
		)),
	}
	grid, err := cell.NewGrid(bounds, welcome.CellSize)
	if err != nil {
		return stats, err
	}
	fps := int(welcome.FPS)
	if fps <= 0 {
		fps = 30
	}
	interval := time.Second / time.Duration(fps)
	frameTimeout := cfg.FrameTimeout
	if frameTimeout <= 0 {
		frameTimeout = 4 * interval
		if frameTimeout < 250*time.Millisecond {
			frameTimeout = 250 * time.Millisecond
		}
	}

	deadline := time.Now().Add(cfg.Duration)
	rx := newReceiver(&stats, int(cfg.ID), nil, cfg.Decode, cfg.Layers)
	rx.in = rd
	start := time.Now()
	frame := uint32(0)
	next := time.Now()
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		// Pace to the content rate.
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		next = next.Add(interval)

		t := time.Since(start).Seconds()
		cullSpan := rx.tracer.Begin(int(frame), int(cfg.ID), obs.StageCull)
		pose := geom.Pose{Rot: geom.QuatIdent()}
		if cfg.Trace != nil {
			pose = cfg.Trace.PoseAtTime(t)
		}
		// Client-side visibility: every grid cell intersecting the
		// frustum (the client cannot know occupancy; the server skips
		// empty cells and reports the delivered count).
		fr := geom.NewFrustum(pose, geom.DefaultFrustumParams())
		var refs []wire.CellRef
		for id := cell.ID(0); int(id) < grid.NumCells(); id++ {
			if fr.IntersectsAABB(grid.Bounds(id)) {
				ref := wire.CellRef{CellID: uint32(id), Stride: cfg.Stride}
				if hc := rx.held[uint32(id)]; hc != nil {
					ref.HaveLayers, ref.Token = hc.layers, hc.token
				}
				refs = append(refs, ref)
			}
		}
		writeErr := wire.WriteMessage(conn, &wire.SegmentRequest{Frame: frame, Cells: refs})
		cullSpan.End()
		if writeErr != nil {
			break
		}
		stats.PosesSent++ // one request per frame plays the pose role

		// Drain until this frame's FrameComplete, bounded per frame: if
		// the server dropped the marker (full queue), the deadline
		// abandons the frame instead of wedging the session; messages
		// from a newer frame resync the loop forward, stale ones (an
		// abandoned earlier frame's tail) are counted and skipped.
		frameDeadline := time.Now().Add(frameTimeout)
		if frameDeadline.After(deadline) {
			frameDeadline = deadline
		}
	drain:
		for {
			conn.SetReadDeadline(frameDeadline)
			msg, err := rd.Read()
			if err != nil {
				if isTimeout(err) && time.Now().Before(deadline) {
					// Lost FrameComplete or stalled burst: abandon this
					// frame and move on.
					stats.FramesDropped++
					metrics.Default().Counter("transport.pull.frame_timeouts").Inc()
					break drain
				}
				goto out
			}
			switch m := msg.(type) {
			case *wire.CellData:
				switch {
				case m.Frame < frame:
					continue drain // stale tail of an abandoned frame
				case m.Frame > frame:
					// The server is already answering a newer request
					// (this frame's marker was lost): resync.
					stats.FramesDropped++
					frame = m.Frame
				}
				rx.cell(m)
			case *wire.FrameComplete:
				if m.Frame < frame {
					continue drain // marker of an abandoned frame
				}
				if m.Frame > frame {
					stats.FramesDropped++
					frame = m.Frame
				}
				rx.complete(m.Frame)
				break drain
			case *wire.Ping:
				// The reader is the only writer on this connection
				// between requests, so answering inline is safe.
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				if err := wire.WriteMessage(conn, &wire.Pong{Seq: m.Seq, T: m.T}); err != nil {
					goto out
				}
			case *wire.Bye:
				goto out // server drained and signed off
			}
		}
		frame++
	}
out:
	rx.join() // a timed-out or cut frame's decodes end before stats is returned
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		stats.AvgFPS = float64(stats.Frames) / elapsed
	}
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	//vollint:ignore wireerr best-effort goodbye on a session that is already over; the deferred Close severs the socket either way
	_ = wire.WriteMessage(conn, &wire.Bye{})
	return stats, nil
}
