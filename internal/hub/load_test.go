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

// TestLoadSmokeMultiSession mirrors the pinned volload smoke scenario:
// 4 sessions × 16 concurrent clients against one hub, every client
// receiving frames, shutdown leaving nothing behind.
func TestLoadSmokeMultiSession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load smoke")
	}
	snap := leakcheck.Take()
	reg := metrics.NewRegistry()
	h, err := hub.New(hub.Config{
		NewStore: func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
			video := pointcloud.SynthVideo(pointcloud.SynthConfig{
				Frames: 4, FPS: 30, PointsPerFrame: 1200, Seed: 7, Sway: 1,
			})
			b, ok := video.Bounds()
			if !ok {
				return nil, fmt.Errorf("scene %d: empty video", scene)
			}
			g, err := cell.NewGrid(b, cell.Size50)
			if err != nil {
				return nil, err
			}
			enc := codec.NewEncoder(codec.DefaultParams())
			if blocks != nil {
				enc = enc.Cached(blocks)
			}
			return vivo.BuildStore(video, g, enc, []int{1, 2})
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
	for i, f := range frames {
		if f == 0 {
			t.Errorf("client %d (scene %d) completed no frames", i, i%sessions)
		}
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
