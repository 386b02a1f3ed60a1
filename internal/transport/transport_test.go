package transport

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/faultnet"
	"volcast/internal/hub"
	"volcast/internal/pointcloud"
	"volcast/internal/trace"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

func testStore(t testing.TB, frames, points int) *vivo.Store {
	t.Helper()
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: frames, FPS: 30, PointsPerFrame: points, Seed: 1, Sway: 1,
	})
	b, _ := video.Bounds()
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	enc := codec.NewEncoder(codec.DefaultParams())
	store, err := vivo.BuildStore(video, g, enc, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// startHub serves store as every scene of a hub listening on loopback —
// behind a fault-injecting listener when faults are given — and shuts it
// down with the test.
func startHub(t *testing.T, store *vivo.Store, cfg hub.Config, faults ...faultnet.Config) (*hub.Hub, *faultnet.Listener, string) {
	t.Helper()
	cfg.NewStore = func(uint32, codec.BlockCache) (*vivo.Store, error) { return store, nil }
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	h, err := hub.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var fln *faultnet.Listener
	serving := ln
	if len(faults) > 0 {
		fln = faultnet.NewListener(ln, faults[0])
		serving = fln
	}
	go func() {
		if err := h.Serve(serving); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(h.Shutdown)
	return h, fln, ln.Addr().String()
}

func TestEndToEndSingleClient(t *testing.T) {
	store := testStore(t, 5, 8_000)
	_, _, addr := startHub(t, store, hub.Config{})

	study := trace.GenerateStudy(60, 1)
	stats, err := RunClient(context.Background(), ClientConfig{
		Addr: addr, ID: 1, Name: "itest", Trace: study.Traces[0],
		Duration: 1200 * time.Millisecond, Decode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames < 10 {
		t.Errorf("only %d frames in 1.2s", stats.Frames)
	}
	if stats.Cells == 0 || stats.Bytes == 0 {
		t.Errorf("no content received: %+v", stats)
	}
	if stats.DecodeErrors != 0 {
		t.Errorf("%d decode errors", stats.DecodeErrors)
	}
	if stats.Points == 0 {
		t.Error("decoded no points")
	}
	if stats.PosesSent < 10 {
		t.Errorf("only %d poses sent", stats.PosesSent)
	}
	if stats.AvgFPS < 5 {
		t.Errorf("AvgFPS = %v", stats.AvgFPS)
	}
}

func TestEndToEndMultiClientMulticastMarking(t *testing.T) {
	store := testStore(t, 5, 8_000)
	_, _, addr := startHub(t, store, hub.Config{})

	study := trace.GenerateStudy(60, 1)
	var wg sync.WaitGroup
	statsCh := make(chan ClientStats, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := RunClient(context.Background(), ClientConfig{
				Addr: addr, ID: uint32(i), Name: "multi", Trace: study.Traces[i],
				Duration: 1200 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			statsCh <- st
		}(i)
	}
	wg.Wait()
	close(statsCh)
	gotMulticast := false
	n := 0
	for st := range statsCh {
		n++
		if st.Frames == 0 {
			t.Error("client starved")
		}
		if st.MulticastBytes > 0 {
			gotMulticast = true
		}
	}
	if n != 3 {
		t.Fatalf("%d clients finished", n)
	}
	// Users watching the same content overlap: shared cells must have
	// been marked multicast at least sometimes.
	if !gotMulticast {
		t.Error("no multicast-marked bytes despite overlapping viewports")
	}
}

func TestServerVanillaMode(t *testing.T) {
	store := testStore(t, 3, 5_000)
	_, _, addr := startHub(t, store, hub.Config{Vanilla: true})
	stats, err := RunClient(context.Background(), ClientConfig{
		Addr: addr, ID: 7, Duration: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames == 0 || stats.Cells == 0 {
		t.Errorf("vanilla mode delivered nothing: %+v", stats)
	}
}

func TestServerRejectsGarbageHandshake(t *testing.T) {
	store := testStore(t, 2, 2_000)
	_, _, addr := startHub(t, store, hub.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Not a Hello: server must close without panicking.
	if err := wire.WriteMessage(conn, &wire.Bye{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server kept talking to a garbage handshake")
	}
}

func TestServerShutdownUnblocksClients(t *testing.T) {
	store := testStore(t, 3, 2_000)
	srv, _, addr := startHub(t, store, hub.Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunClient(context.Background(), ClientConfig{
			Addr: addr, ID: 1, Duration: 10 * time.Second,
		})
	}()
	time.Sleep(300 * time.Millisecond)
	srv.Shutdown()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client did not unblock after shutdown")
	}
}

func TestServerAdaptsToSlowClient(t *testing.T) {
	// Large content at 30 FPS into a client that drains slowly: the
	// server must announce a degradation level via Adapt. The raw socket
	// never answers pings and the writer blocks on it, and the Adapt of
	// the first passes queues behind seconds of backlog, so the idle and
	// write budgets are kept out of the way.
	store := testStore(t, 2, 120_000)
	_, _, addr := startHub(t, store, hub.Config{
		Vanilla:      true,
		IdleTimeout:  60 * time.Second,
		WriteTimeout: 60 * time.Second,
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMessage(conn, &wire.Hello{ClientID: 9, Name: "slow"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadMessage(conn); err != nil { // Welcome
		t.Fatal(err)
	}

	adapted := false
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) && !adapted {
		// Drain a few messages, then pause so the queue builds: ≈ 35 Mbps
		// against ≈ 140 Mbps of content. The first pass's Adapt queues
		// behind the second of frames pushed before it.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for i := 0; i < 10; i++ {
			msg, err := wire.ReadMessage(conn)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if a, ok := msg.(*wire.Adapt); ok && a.Quality > 0 {
				adapted = true
				break
			}
		}
		time.Sleep(150 * time.Millisecond)
	}
	if !adapted {
		t.Error("server never degraded a slow client")
	}
}

func TestPullModeSegmentRequest(t *testing.T) {
	store := testStore(t, 3, 8_000)
	_, _, addr := startHub(t, store, hub.Config{})

	// Ask for every occupied cell of frame 1 at stride 2, plus a bogus id.
	var refs []wire.CellRef
	store.Frame(1).Occupied.ForEach(func(id cell.ID) {
		refs = append(refs, wire.CellRef{CellID: uint32(id), Stride: 2})
	})
	want := len(refs)
	refs = append(refs, wire.CellRef{CellID: 99999, Stride: 2})

	// fetch joins as a pull client, sends the request and returns the
	// payloads of the answering burst by cell.
	fetch := func(id uint32) map[uint32][]byte {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteMessage(conn, &wire.Hello{ClientID: id, Name: "pull", Flags: wire.HelloFlagPull}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadMessage(conn); err != nil { // Welcome
			t.Fatal(err)
		}
		if err := wire.WriteMessage(conn, &wire.SegmentRequest{Frame: 1, Cells: refs}); err != nil {
			t.Fatal(err)
		}
		var dec codec.Decoder
		got := map[uint32][]byte{}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			msg, err := wire.ReadMessage(conn)
			if err != nil {
				t.Fatalf("pull response never completed: %v", err)
			}
			switch m := msg.(type) {
			case *wire.CellData:
				if m.Frame != 1 {
					t.Fatalf("cell from frame %d", m.Frame)
				}
				if _, err := dec.Decode(m.Payload); err != nil {
					t.Fatalf("pull payload undecodable: %v", err)
				}
				got[m.CellID] = m.Payload
			case *wire.FrameComplete:
				if int(m.Cells) != want {
					t.Fatalf("FrameComplete.Cells = %d, want %d (bogus id must be skipped)", m.Cells, want)
				}
				if len(got) != want {
					t.Fatalf("received %d cells, want %d", len(got), want)
				}
				wire.WriteMessage(conn, &wire.Bye{})
				return got
			}
		}
	}

	// Two pull clients asking for the same cells receive the same bytes.
	first, second := fetch(3), fetch(4)
	for id, p := range first {
		if !bytes.Equal(p, second[id]) {
			t.Errorf("cell %d: payload diverges between pull clients", id)
		}
	}
}

func TestSegmentRequestRoundTripOnWire(t *testing.T) {
	// Pull clients must not also receive pushed frames.
	store := testStore(t, 3, 8_000)
	_, _, addr := startHub(t, store, hub.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire.WriteMessage(conn, &wire.Hello{ClientID: 4, Name: "pull2", Flags: wire.HelloFlagPull})
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	wire.ReadMessage(conn) // Welcome
	// Declare pull intent with an empty request.
	wire.WriteMessage(conn, &wire.SegmentRequest{Frame: 0})
	// Drain the (single, empty) response.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if fc, ok := msg.(*wire.FrameComplete); !ok || fc.Cells != 0 {
		t.Fatalf("expected empty FrameComplete, got %v", msg.Type())
	}
	// Now nothing else should arrive for a while (no pushed bursts).
	conn.SetReadDeadline(time.Now().Add(400 * time.Millisecond))
	if m, err := wire.ReadMessage(conn); err == nil {
		t.Fatalf("pull client received pushed %v", m.Type())
	}
}

func TestRunPullClient(t *testing.T) {
	store := testStore(t, 5, 10_000)
	_, _, addr := startHub(t, store, hub.Config{})
	study := trace.GenerateStudy(90, 1)
	stats, err := RunPullClient(context.Background(), PullClientConfig{
		Addr: addr, ID: 11, Trace: study.Traces[0],
		Duration: 1 * time.Second, Stride: 2, Decode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames < 5 {
		t.Errorf("pull client got %d frames", stats.Frames)
	}
	if stats.Cells == 0 || stats.Bytes == 0 {
		t.Errorf("pull client got no content: %+v", stats)
	}
	if stats.DecodeErrors != 0 {
		t.Errorf("%d decode errors", stats.DecodeErrors)
	}
	if stats.Points == 0 {
		t.Error("pull client decoded nothing")
	}
}

func TestPushAndPullClientsCoexist(t *testing.T) {
	store := testStore(t, 5, 10_000)
	_, _, addr := startHub(t, store, hub.Config{})
	study := trace.GenerateStudy(90, 1)
	var wg sync.WaitGroup
	var pushStats, pullStats ClientStats
	var pushErr, pullErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		pushStats, pushErr = RunClient(context.Background(), ClientConfig{
			Addr: addr, ID: 1, Trace: study.Traces[0], Duration: time.Second,
		})
	}()
	go func() {
		defer wg.Done()
		pullStats, pullErr = RunPullClient(context.Background(), PullClientConfig{
			Addr: addr, ID: 2, Trace: study.Traces[1], Duration: time.Second, Stride: 1,
		})
	}()
	wg.Wait()
	if pushErr != nil || pullErr != nil {
		t.Fatalf("push err %v, pull err %v", pushErr, pullErr)
	}
	if pushStats.Frames == 0 || pullStats.Frames == 0 {
		t.Errorf("starved: push %d, pull %d frames", pushStats.Frames, pullStats.Frames)
	}
}

// TestReceiverSharedByPushAndPull feeds one server script at a time —
// a full cell, a delta onto the held prefix, a delta with nothing held —
// through both players' entry points. The receive path is one piece of
// code, so the two must account, reassemble and decode identically.
func TestReceiverSharedByPushAndPull(t *testing.T) {
	store := testStore(t, 1, 4_000)
	var id cell.ID
	store.Frame(0).Occupied.ForEach(func(c cell.ID) { id = c })
	blk := store.LayeredBlock(0, id)
	if blk == nil || blk.Layers() < 2 {
		t.Fatal("test store has no layered block to script with")
	}
	full := blk.Layers()
	base := &wire.CellData{CellID: 5, Stride: 4, Payload: blk.Prefix(1), Layers: 1}
	delta := &wire.CellData{CellID: 5, Stride: 1, Payload: blk.Delta(1, full), Layers: uint8(full), BaseLayers: 1}
	orphan := &wire.CellData{CellID: 6, Stride: 1, Payload: blk.Delta(1, full), Layers: uint8(full), BaseLayers: 1}
	var dec codec.Decoder
	points := func(payload []byte) int64 {
		dc, err := dec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(dc.Points))
	}

	for _, tc := range []struct {
		name   string
		script []*wire.CellData
		want   ClientStats
	}{
		{"full cell", []*wire.CellData{base}, ClientStats{
			Frames: 1, Cells: 1, Bytes: int64(len(base.Payload)), Points: points(blk.Prefix(1)),
		}},
		{"delta onto held prefix", []*wire.CellData{base, delta}, ClientStats{
			Frames: 1, Cells: 2, Bytes: int64(len(blk.Data)),
			DeltaCells: 1, DeltaBytes: int64(len(delta.Payload)), DeltaFullBytes: int64(len(blk.Data)),
			Points: points(blk.Prefix(1)) + points(blk.Data),
		}},
		{"delta with nothing held", []*wire.CellData{orphan}, ClientStats{
			Frames: 1, Cells: 1, Bytes: int64(len(orphan.Payload)), DecodeErrors: 1,
		}},
	} {
		// serve answers the handshake, waits for the first request when
		// the player pulls, plays the script as frame 0 and signs off.
		serve := func(pull bool) string {
			return fakeServer(t, func(conn net.Conn) {
				if !welcomeFor(conn) {
					return
				}
				for pull {
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					msg, err := wire.ReadMessage(conn)
					if err != nil {
						return
					}
					if _, ok := msg.(*wire.SegmentRequest); ok {
						break
					}
				}
				for _, cd := range tc.script {
					if wire.WriteMessage(conn, cd) != nil {
						return
					}
				}
				if wire.WriteMessage(conn, &wire.FrameComplete{Cells: uint32(len(tc.script))}) == nil {
					wire.WriteMessage(conn, &wire.Bye{})
				}
			})
		}
		t.Run(tc.name, func(t *testing.T) {
			push, err := RunClient(context.Background(), ClientConfig{
				Addr: serve(false), ID: 1, Duration: 5 * time.Second, Decode: true, Layers: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			pull, err := RunPullClient(context.Background(), PullClientConfig{
				Addr: serve(true), ID: 2, Duration: 5 * time.Second, Decode: true, Layers: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Pose and request counts and the wall-clock rate are the
			// players' own; everything the receiver accounts must agree.
			for _, st := range []*ClientStats{&push, &pull} {
				st.PosesSent, st.AvgFPS = 0, 0
			}
			if push != tc.want {
				t.Errorf("push stats %+v, want %+v", push, tc.want)
			}
			if pull != tc.want {
				t.Errorf("pull stats %+v, want %+v", pull, tc.want)
			}
		})
	}
}
