// Package volcast is a multi-user volumetric video streaming system with
// mmWave multicast and cross-layer adaptation — an open reproduction of
// "Innovating Multi-user Volumetric Video Streaming through Cross-layer
// Design" (HotNets '21). The package is the high-level facade: it wires
// the synthetic volumetric content pipeline, the 6DoF audience model, the
// 802.11ad/802.11ac network models, the viewport-similarity multicast
// scheduler and the cross-layer rate adaptation into a few simple types:
//
//	content, _ := volcast.NewContent(volcast.ContentOptions{})
//	audience, _ := volcast.NewAudience(volcast.AudienceOptions{Users: 4})
//	session, _ := volcast.NewSession(content, audience, volcast.SessionOptions{})
//	qoe, _ := session.Run()
//
// The internal packages expose every subsystem (geometry, point clouds,
// cells, codec, traces, visibility, prediction, PHY, beams, MAC,
// multicast, ABR, streaming, wire protocol, transport, experiments) for
// finer-grained use; see DESIGN.md for the map.
package volcast

import (
	"context"
	"fmt"
	"os"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/hub"
	"volcast/internal/pointcloud"
	"volcast/internal/stream"
	"volcast/internal/trace"
	"volcast/internal/transport"
	"volcast/internal/vivo"
)

// ContentOptions configure synthetic volumetric content generation.
type ContentOptions struct {
	// Frames is the video length (default 30 = one second).
	Frames int
	// PointsPerFrame is the point budget (default 100_000). The paper's
	// quality ladder uses 330K/430K/550K.
	PointsPerFrame int
	// Performers is the number of humanoids on stage (default 1; the
	// viewport-similarity study uses 3).
	Performers int
	// CellSize is the partition granularity in meters (default 0.5).
	CellSize float64
	// Seed makes generation deterministic (default 1).
	Seed int64
}

// Content is encoded volumetric video ready to stream: partitioned into
// independently decodable cells at a ladder of density strides.
type Content struct {
	store *vivo.Store
	video *pointcloud.Video
}

// NewContent generates and encodes a synthetic volumetric video.
func NewContent(opts ContentOptions) (*Content, error) {
	if opts.Frames <= 0 {
		opts.Frames = 30
	}
	if opts.PointsPerFrame <= 0 {
		opts.PointsPerFrame = 100_000
	}
	if opts.Performers <= 0 {
		opts.Performers = 1
	}
	if opts.CellSize <= 0 {
		opts.CellSize = cell.Size50
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var video *pointcloud.Video
	if opts.Performers == 1 {
		video = pointcloud.SynthVideo(pointcloud.SynthConfig{
			Frames: opts.Frames, FPS: 30, PointsPerFrame: opts.PointsPerFrame,
			Seed: opts.Seed, Sway: 1,
		})
	} else {
		scene := pointcloud.DefaultSceneConfig(opts.Frames, opts.PointsPerFrame, opts.Seed)
		if opts.Performers != len(scene.Offsets) {
			scene.Offsets = scene.Offsets[:min(opts.Performers, len(scene.Offsets))]
		}
		video = pointcloud.SynthScene(scene)
	}
	b, ok := video.Bounds()
	if !ok {
		return nil, fmt.Errorf("volcast: generated video is empty")
	}
	g, err := cell.NewGrid(b, opts.CellSize)
	if err != nil {
		return nil, err
	}
	enc := codec.NewEncoder(codec.DefaultParams())
	store, err := vivo.BuildStore(video, g, enc, []int{1, 2, 3, 4})
	if err != nil {
		return nil, err
	}
	return &Content{store: store, video: video}, nil
}

// LoadContent reads pre-encoded content from a .vcstor container (see
// cmd/volpack). Loaded content can be served and evaluated but reports
// AvgPoints from the encoded blocks rather than the raw video.
func LoadContent(path string) (*Content, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := vivo.ReadStore(f)
	if err != nil {
		return nil, err
	}
	return &Content{store: store}, nil
}

// Save writes the encoded content to a .vcstor container.
func (c *Content) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := vivo.WriteStore(f, c.store); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Frames returns the video length in frames.
func (c *Content) Frames() int { return c.store.NumFrames() }

// BitrateMbps returns the full-density streaming bitrate at 30 FPS.
func (c *Content) BitrateMbps() float64 {
	return codec.BitrateMbps(c.store.AvgFrameBytes(), 30)
}

// AvgPoints returns the mean points per frame (0 for loaded content,
// which no longer carries the raw clouds).
func (c *Content) AvgPoints() float64 {
	if c.video == nil {
		return 0
	}
	return c.video.AvgPoints()
}

// Store exposes the underlying encoded store for advanced use (internal
// API surface; stable within this module).
func (c *Content) Store() *vivo.Store { return c.store }

// AudienceOptions configure the synthetic multi-user audience.
type AudienceOptions struct {
	// Users is the number of concurrent viewers (default 2).
	Users int
	// Headset selects the free-moving headset behaviour model instead of
	// the phone model.
	Headset bool
	// Frames is the trace length (default: match the content; set it
	// when using the audience standalone).
	Frames int
	// Seed makes generation deterministic (default 1).
	Seed int64
}

// Audience is a set of synthetic 6DoF viewers.
type Audience struct {
	study *trace.Study
}

// NewAudience generates viewer traces.
func NewAudience(opts AudienceOptions) (*Audience, error) {
	if opts.Users <= 0 {
		opts.Users = 2
	}
	if opts.Frames <= 0 {
		opts.Frames = 300
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	dev := trace.DevicePhone
	if opts.Headset {
		dev = trace.DeviceHeadset
	}
	study := trace.Generate(trace.GenConfig{
		Users: opts.Users, Device: dev, Frames: opts.Frames, Hz: 30,
		Seed: opts.Seed, ContentHeight: 1.8, POIs: trace.StudyPOIs(),
	})
	return &Audience{study: study}, nil
}

// Users returns the audience size.
func (a *Audience) Users() int { return a.study.Users() }

// Study exposes the underlying traces.
func (a *Audience) Study() *trace.Study { return a.study }

// SessionOptions configure a streaming session simulation.
type SessionOptions struct {
	// Seconds is the session length (default 2).
	Seconds float64
	// Multicast enables viewport-similarity multicast grouping.
	Multicast bool
	// CustomBeams enables the multi-lobe beam design for groups.
	CustomBeams bool
	// Predictive enables joint viewport prediction and proactive
	// cross-layer actions (prefetch, beam switching).
	Predictive bool
	// WiFi5 runs over the 802.11ac model instead of 802.11ad mmWave.
	WiFi5 bool
	// Fading adds seeded small-scale RSS fading to every link.
	Fading bool
	// AdaptQuality lets the cross-layer controller move each user along
	// the density rungs of the content's layered store, once per second:
	// down when the predicted bandwidth falls short of the user's demand,
	// back up when it affords the enhancement layers.
	AdaptQuality bool
	// Seed drives the session's stochastic components (default 1).
	Seed int64
}

// Session is a configured multi-user streaming run.
type Session struct {
	inner *stream.Session
}

// QoE re-exports the stream engine's quality-of-experience summary.
type QoE = stream.QoE

// NewSession wires content, audience and network into a session.
func NewSession(c *Content, a *Audience, opts SessionOptions) (*Session, error) {
	if c == nil || a == nil {
		return nil, fmt.Errorf("volcast: session needs content and audience")
	}
	if opts.Seconds <= 0 {
		opts.Seconds = 2
	}
	var net *stream.Network
	var err error
	if opts.WiFi5 {
		net, err = stream.NewAC()
	} else {
		net, err = stream.NewAD()
	}
	if err != nil {
		return nil, err
	}
	mode := stream.ModeViVo
	if opts.Multicast {
		mode = stream.ModeMulticast
	}
	inner, err := stream.NewSession(stream.SessionConfig{
		Users:        a.Users(),
		Seconds:      opts.Seconds,
		Mode:         mode,
		CustomBeams:  opts.CustomBeams,
		Predictive:   opts.Predictive,
		StartQuality: pointcloud.QualityLow,
		AdaptQuality: opts.AdaptQuality,
		Fading:       opts.Fading,
		Seed:         opts.Seed,
	}, map[pointcloud.Quality]*vivo.Store{pointcloud.QualityLow: c.store}, a.study, net)
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// Run executes the session and returns its QoE summary.
func (s *Session) Run() (QoE, error) { return s.inner.Run() }

// Serve streams the content over TCP until ctx is canceled. The bound
// address is sent on ready (pass ":0" to pick a free port).
func Serve(ctx context.Context, addr string, c *Content, ready chan<- string) error {
	// One content, one store: every scene a client names serves it.
	srv, err := hub.New(hub.Config{
		NewStore: func(uint32, codec.BlockCache) (*vivo.Store, error) { return c.store, nil },
	})
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(addr, ready) }()
	select {
	case <-ctx.Done():
		srv.Shutdown()
		<-done
		return nil
	case err := <-done:
		return err
	}
}

// Play connects a synthetic viewer to a volcast server and plays for the
// given duration, returning playback statistics.
func Play(ctx context.Context, addr string, userID int, a *Audience, d time.Duration) (transport.ClientStats, error) {
	var tr *trace.Trace
	if a != nil && userID < a.Users() {
		tr = a.study.Traces[userID]
	}
	return transport.RunClient(ctx, transport.ClientConfig{
		Addr: addr, ID: uint32(userID), Name: fmt.Sprintf("viewer-%d", userID),
		Trace: tr, Duration: d, Decode: true,
	})
}

// PullPlay connects a pull-mode viewer (client-side visibility, explicit
// SegmentRequests) to a volcast server for the given duration.
func PullPlay(ctx context.Context, addr string, userID int, a *Audience, d time.Duration) (transport.ClientStats, error) {
	var tr *trace.Trace
	if a != nil && userID < a.Users() {
		tr = a.study.Traces[userID]
	}
	return transport.RunPullClient(ctx, transport.PullClientConfig{
		Addr: addr, ID: uint32(userID), Trace: tr, Duration: d, Stride: 1, Decode: true,
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
