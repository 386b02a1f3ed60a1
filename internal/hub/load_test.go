package hub_test

// The load smoke lives in an external test package: it drives the hub
// the way a deployment does, through its exported surface and with real
// transport clients.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/pointcloud"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/trace"
	"volcast/internal/transport"
	"volcast/internal/vivo"
)

// TestLoadSmokeMultiSession is the pinned multi-session gate: 4 sessions
// × 16 concurrent clients against one hub, half of them layer-aware,
// every client finishing and receiving frames, at least minFleetFrames
// delivered across the fleet, and shutdown leaving no goroutine behind.
// The floor is fixed: lengthen the run, never lower the floor, if a slow
// machine needs the margin.
func TestLoadSmokeMultiSession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load smoke")
	}
	snap := leakcheck.Take()
	reg := metrics.NewRegistry()
	h, err := hub.New(hub.Config{
		NewStore: func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
			video := pointcloud.Stage{Frames: 4, Points: 1200, Seed: 7}.Video()
			return vivo.BuildVideo(video, cell.Size50, codec.NewEncoder(codec.DefaultParams()).Cached(blocks), []int{1, 2})
		},
		Logf:      t.Logf,
		Metrics:   reg,
		ReapAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	go func() {
		if err := h.ListenAndServe("127.0.0.1:0", ready); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := <-ready

	const sessions, perSession = 4, 16
	const minFleetFrames = 1000
	study := trace.GenerateStudy(90, 1)
	frames := make([]int, sessions*perSession)
	var wg sync.WaitGroup
	for i := 0; i < sessions*perSession; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats, err := transport.RunClient(context.Background(), transport.ClientConfig{
				Addr:     addr,
				ID:       uint32(i + 1),
				Name:     fmt.Sprintf("smoke%d", i),
				Scene:    uint32(i % sessions),
				Trace:    study.Traces[i%len(study.Traces)],
				Duration: 1500 * time.Millisecond,
				Layers:   i%2 == 1,
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			frames[i] = stats.Frames
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	total := 0
	for i, f := range frames {
		if f == 0 {
			t.Errorf("client %d (scene %d) completed no frames", i, i%sessions)
		}
		total += f
	}
	t.Logf("fleet completed %d frames", total)
	if total < minFleetFrames {
		t.Errorf("fleet completed %d frames, want at least %d", total, minFleetFrames)
	}
	if got := h.NumSessions(); got != sessions {
		t.Errorf("NumSessions = %d, want %d", got, sessions)
	}
	h.Shutdown()
	if got := h.NumClients(); got != 0 {
		t.Errorf("NumClients after shutdown = %d, want 0", got)
	}
	snap.Check(t)
}
