package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/par"
	"volcast/internal/trace"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// TestDecodingClientOwnsInBufferPayloads: the read loop parses a cell
// that fits its wire.Reader in place and refills that buffer while the
// decode pool still works on the cell, so the receiver must hand the pool
// a copy (a cell too large for the buffer arrives in a body of its own and
// needs none). A scripted server sends bursts of such cells, many to a
// buffer fill, with a few large ones among them, over a real connection;
// a decoding push client must report the reference point count exactly
// at pool widths 1, 2 and 8 — a decode that read bytes the loop had
// overwritten would fail or count other points.
func TestDecodingClientOwnsInBufferPayloads(t *testing.T) {
	store := testStore(t, 4, 20_000)
	var cells []*wire.CellData
	var points int64 // the reference count of one pass over cells
	var dec codec.Decoder
	small, large := 0, 0
	for fi := 0; fi < store.NumFrames(); fi++ {
		store.Frame(fi).Occupied.ForEach(func(id cell.ID) {
			blk := store.LayeredBlock(fi, id)
			switch {
			case len(blk.Data) <= 8<<10:
				small++
			case len(blk.Data) > 32<<10:
				large++
			default:
				return
			}
			dc, err := dec.Decode(blk.Data)
			if err != nil {
				t.Fatal(err)
			}
			points += int64(len(dc.Points))
			cells = append(cells, &wire.CellData{Frame: uint32(fi), CellID: uint32(id), Stride: 1, Payload: blk.Data})
		})
	}
	if small < 8 || large == 0 {
		t.Fatalf("%d cells of at most 8 KB and %d past 32 KB: not the mixed burst the test is for", small, large)
	}
	const frames = 10
	var script []byte
	for f := 0; f < frames; f++ {
		for _, cd := range cells {
			var err error
			if script, err = wire.AppendMessage(script, cd); err != nil {
				t.Fatal(err)
			}
		}
		script, _ = wire.AppendMessage(script, &wire.FrameComplete{Frame: uint32(f), Cells: uint32(len(cells))})
	}
	script, _ = wire.AppendMessage(script, &wire.Bye{})
	addr := fakeServer(t, func(conn net.Conn) {
		if !welcomeFor(conn) {
			return
		}
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(script); err != nil {
			return
		}
		io.Copy(io.Discard, conn) // until the client hangs up
	})

	defer par.SetWorkers(0)
	for _, width := range []int{1, 2, 8} {
		par.SetWorkers(width)
		blockcache.SetBudgetMB(0) // empty the decode tier: every width decodes for real
		blockcache.SetBudgetMB(-1)
		stats, err := RunClient(context.Background(), ClientConfig{
			Addr: addr, ID: 1, Decode: true, Duration: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Frames != frames || stats.DecodeErrors != 0 || stats.Points != frames*points {
			t.Errorf("width %d: %d frames, %d decode errors, %d points; want %d frames, 0 errors, %d points",
				width, stats.Frames, stats.DecodeErrors, stats.Points, frames, frames*points)
		}
	}
}

// TestFirstFrameCulledToPose: a client sends its first pose at connect,
// not a trace tick later, so with a 1 Hz trace the first frame it
// completes is already culled to its viewport rather than the whole
// frame at full density that the hub pushes a viewer it has no pose for.
func TestFirstFrameCulledToPose(t *testing.T) {
	store := testStore(t, 5, 8_000)
	_, _, addr := startHub(t, store, hub.Config{FPS: 10, Metrics: metrics.NewRegistry()})
	// From the middle of the content, looking one way: some cells are
	// behind the viewer.
	pose := geom.Pose{Pos: store.Grid().Center(store.Frame(0).Occupied.IDs()[0]), Rot: geom.QuatIdent()}
	tap := &adaptTap{}
	if _, err := RunClient(context.Background(), ClientConfig{
		Addr: addr, ID: 1, Duration: 600 * time.Millisecond, Dial: dialTap(tap, nil),
		Trace: &trace.Trace{Hz: 1, Samples: []trace.Sample{{Pose: pose}}},
	}); err != nil {
		t.Fatal(err)
	}
	completes := tap.frameCompletes()
	if len(completes) == 0 {
		t.Fatal("no frame completed")
	}
	first := completes[0]
	occ := store.Frame(int(first.Frame) % store.NumFrames()).Occupied
	culled := len(vivo.New(store.Grid(), vivo.DefaultParams()).Request(occ, pose).Cells)
	if vanilla := occ.Count(); culled == vanilla {
		t.Fatalf("the pose sees all %d occupied cells: it cannot tell culled from vanilla", vanilla)
	}
	if int(first.Cells) != culled {
		t.Errorf("first frame %d carried %d cells, want the %d its pose sees (of %d occupied)",
			first.Frame, first.Cells, culled, occ.Count())
	}
}

// TestFirstFrameAtFirstPose: the client's first pose rides behind its
// Hello and the hub pushes a new scene's frame 0 as soon as it reads it,
// so at 1 fps — one interval is a second — the first frame completes well
// inside the interval, already culled to the pose. At 120 fps the same
// holds with the ticker running.
func TestFirstFrameAtFirstPose(t *testing.T) {
	store := testStore(t, 5, 8_000)
	pose := geom.Pose{Pos: store.Grid().Center(store.Frame(0).Occupied.IDs()[0]), Rot: geom.QuatIdent()}
	occ := store.Frame(0).Occupied
	culled := len(vivo.New(store.Grid(), vivo.DefaultParams()).Request(occ, pose).Cells)
	if culled == occ.Count() {
		t.Fatalf("the pose sees all %d occupied cells: it cannot tell culled from vanilla", culled)
	}
	for _, fps := range []int{1, 120} {
		t.Run(fmt.Sprintf("fps%d", fps), func(t *testing.T) {
			_, _, addr := startHub(t, store, hub.Config{FPS: fps, Metrics: metrics.NewRegistry()})
			tap := &adaptTap{}
			var dialed, firstAt time.Time
			dial := dialTap(tap, nil)
			if _, err := RunClient(context.Background(), ClientConfig{
				Addr: addr, ID: 1, Duration: 600 * time.Millisecond,
				Trace: &trace.Trace{Hz: 1, Samples: []trace.Sample{{Pose: pose}}},
				Dial: func(ctx context.Context, addr string) (net.Conn, error) {
					dialed = time.Now()
					return dial(ctx, addr)
				},
				OnFrameLatency: func(time.Duration) {
					if firstAt.IsZero() {
						firstAt = time.Now()
					}
				},
			}); err != nil {
				t.Fatal(err)
			}
			completes := tap.frameCompletes()
			if len(completes) == 0 || firstAt.IsZero() {
				t.Fatal("no frame completed")
			}
			if d := firstAt.Sub(dialed); d > 300*time.Millisecond {
				t.Errorf("first frame completed %v after dialing, want well inside one interval (%v)", d, time.Second/time.Duration(fps))
			}
			if first := completes[0]; first.Frame != 0 || int(first.Cells) != culled {
				t.Errorf("first frame %d carried %d cells, want frame 0 with the %d its pose sees (of %d occupied)",
					first.Frame, first.Cells, culled, occ.Count())
			}
		})
	}
}
