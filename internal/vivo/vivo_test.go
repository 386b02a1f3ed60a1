package vivo

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

// lineWorld builds a grid with occupied cells in a row along +Z from the
// origin, for occlusion tests.
func lineWorld(t *testing.T) (*cell.Grid, *cell.Set) {
	t.Helper()
	b := geom.NewAABB(geom.V(-3, -1, -1), geom.V(3, 2, 9))
	g, err := cell.NewGrid(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	occ := cell.NewSet(g.NumCells())
	for z := 2.5; z < 8; z++ {
		id, ok := g.IndexOf(geom.V(0.5, 0.5, z))
		if !ok {
			t.Fatal("setup")
		}
		occ.Add(id)
	}
	return g, occ
}

func TestVisibleFrustumCull(t *testing.T) {
	g, occ := lineWorld(t)
	v := New(g, Params{Occlusion: false})
	pose := geom.Pose{Pos: geom.V(0.5, 0.5, 0), Rot: geom.QuatIdent()}
	vis := v.Visible(occ, pose)
	if vis.Count() != occ.Count() {
		t.Errorf("forward viewer sees %d of %d", vis.Count(), occ.Count())
	}
	back := geom.Pose{Pos: geom.V(0.5, 0.5, 0), Rot: geom.AxisAngle(geom.V(0, 1, 0), math.Pi)}
	if got := v.Visible(occ, back).Count(); got != 0 {
		t.Errorf("backward viewer sees %d", got)
	}
}

func TestUnoccludedKeepsNearest(t *testing.T) {
	g, occ := lineWorld(t)
	v := New(g, DefaultParams())
	eye := geom.V(0.5, 0.5, 0)
	un := v.Unoccluded(occ, eye)
	// The nearest cell must survive; the farthest (5 cells behind) must
	// be culled with depth tolerance 1.5 diagonals (~2.6m).
	nearest, _ := g.IndexOf(geom.V(0.5, 0.5, 2.5))
	farthest, _ := g.IndexOf(geom.V(0.5, 0.5, 7.5))
	if !un.Contains(nearest) {
		t.Error("nearest cell occluded")
	}
	if un.Contains(farthest) {
		t.Error("farthest cell not occluded")
	}
	if un.Count() >= occ.Count() {
		t.Errorf("occlusion culled nothing: %d of %d", un.Count(), occ.Count())
	}
}

func TestUnoccludedSideBySide(t *testing.T) {
	// Two cells side by side at the same depth: neither occludes the other.
	b := geom.NewAABB(geom.V(-3, 0, 0), geom.V(3, 1, 6))
	g, _ := cell.NewGrid(b, 1)
	occ := cell.NewSet(g.NumCells())
	l, _ := g.IndexOf(geom.V(-1.5, 0.5, 4.5))
	r, _ := g.IndexOf(geom.V(1.5, 0.5, 4.5))
	occ.Add(l)
	occ.Add(r)
	v := New(g, DefaultParams())
	un := v.Unoccluded(occ, geom.V(0, 0.5, 0))
	if !un.Contains(l) || !un.Contains(r) {
		t.Errorf("side-by-side cells wrongly occluded: %v", un.IDs())
	}
}

func TestStrideFor(t *testing.T) {
	v := New(nil, DefaultParams())
	cases := []struct {
		d    float64
		want int
	}{{0.5, 1}, {2.0, 1}, {2.1, 2}, {3.5, 2}, {4.9, 3}, {100, 4}}
	for _, c := range cases {
		if got := v.StrideFor(c.d); got != c.want {
			t.Errorf("StrideFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Empty LOD ladder means full density everywhere.
	v2 := New(nil, Params{Occlusion: false})
	if got := v2.StrideFor(100); got != 1 {
		t.Errorf("no-LOD StrideFor = %d", got)
	}
}

func TestRequestPipelineSavesBytes(t *testing.T) {
	cfg := pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 60_000, Seed: 2, Sway: 1}
	frame := pointcloud.SynthFrame(cfg, 0)
	bounds, _ := frame.Bounds()
	// Expand bounds so the viewer is inside the grid world.
	g, err := cell.NewGrid(bounds, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	enc := codec.NewEncoder(codec.DefaultParams())
	video := &pointcloud.Video{FPS: 30, Frames: []*pointcloud.Cloud{frame}}
	store, err := BuildStore(video, g, enc, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	v := New(g, DefaultParams())
	occ := store.Frame(0).Occupied

	// Viewer standing back, looking at the content.
	pose := geom.Pose{
		Pos: geom.V(0, 1.5, 3.0),
		Rot: geom.LookRotation(geom.V(0, 1.0, 0).Sub(geom.V(0, 1.5, 3.0)), geom.V(0, 1, 0)),
	}
	vivoReq := v.Request(occ, pose)
	vanReq := VanillaRequest(occ)

	size := store.SizeOracle(0)
	vivoBytes := vivoReq.Bytes(size)
	vanBytes := vanReq.Bytes(size)
	if vivoBytes <= 0 {
		t.Fatal("ViVo request empty")
	}
	if vivoBytes >= vanBytes {
		t.Errorf("ViVo (%d B) not cheaper than vanilla (%d B)", vivoBytes, vanBytes)
	}
	// ViVo's documented savings on this content class: at least ~15%.
	if float64(vivoBytes) > 0.85*float64(vanBytes) {
		t.Errorf("ViVo savings too small: %d vs %d", vivoBytes, vanBytes)
	}
	pts := store.PointsOracle(0)
	if vivoReq.Points(pts) >= vanReq.Points(pts) {
		t.Error("ViVo did not reduce decoded points")
	}
}

func TestVanillaRequestCoversAll(t *testing.T) {
	_, occ := lineWorld(t)
	req := VanillaRequest(occ)
	if len(req.Cells) != occ.Count() {
		t.Fatalf("vanilla request %d cells, want %d", len(req.Cells), occ.Count())
	}
	ids := make([]cell.ID, len(req.Cells))
	for i, c := range req.Cells {
		if c.Stride != 1 {
			t.Fatalf("vanilla stride %d", c.Stride)
		}
		ids[i] = c.ID
	}
	slices.Sort(ids)
	if !slices.Equal(ids, occ.IDs()) {
		t.Error("vanilla set mismatch")
	}
}

func TestStoreBasics(t *testing.T) {
	cfg := pointcloud.SynthConfig{Frames: 3, FPS: 30, PointsPerFrame: 5_000, Seed: 4, Sway: 1}
	video := pointcloud.SynthVideo(cfg)
	b, _ := video.Bounds()
	g, _ := cell.NewGrid(b, cell.Size50)
	enc := codec.NewEncoder(codec.DefaultParams())
	store, err := BuildStore(video, g, enc, []int{4, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Strides(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Errorf("Strides = %v", got)
	}
	if store.NumFrames() != 3 || store.FPS() != 30 {
		t.Errorf("store meta wrong")
	}
	// Frame wrap-around.
	if store.Frame(3) != store.Frame(0) || store.Frame(-1) != store.Frame(2) {
		t.Error("frame wrapping broken")
	}
	// Stride snapping: 3 snaps to 2 or 4; block exists.
	var anyID cell.ID = -1
	store.Frame(0).Occupied.ForEach(func(id cell.ID) {
		if anyID < 0 {
			anyID = id
		}
	})
	if blk := store.Block(0, anyID, 3); blk == nil {
		t.Error("stride snapping returned nil")
	}
	if blk := store.Block(0, cell.ID(g.NumCells()+5), 1); blk != nil {
		t.Error("unoccupied cell returned a block")
	}
	// Higher strides are smaller.
	full := store.Block(0, anyID, 1)
	quarter := store.Block(0, anyID, 4)
	if full == nil || quarter == nil || quarter.Size() >= full.Size() {
		t.Errorf("stride did not shrink block: %v vs %v", quarter, full)
	}
	if store.FrameBytes(0) <= 0 || store.AvgFrameBytes() <= 0 {
		t.Error("frame bytes not positive")
	}
}

func TestBuildStoreRejectsMissingStride1(t *testing.T) {
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 100, Seed: 1})
	b, _ := video.Bounds()
	g, _ := cell.NewGrid(b, cell.Size50)
	enc := codec.NewEncoder(codec.DefaultParams())
	if _, err := BuildStore(video, g, enc, []int{2, 4}); err == nil {
		t.Error("missing stride 1 accepted")
	}
	if _, err := BuildStore(video, g, enc, nil); err == nil {
		t.Error("empty strides accepted")
	}
}

// requestWorld is BenchmarkVivoRequest's scene: a 100 K-point frame on
// 50 cm cells and a viewer 3 m back.
func requestWorld() (*cell.Grid, *cell.Set, geom.Pose) {
	cfg := pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 100_000, Seed: 2, Sway: 1}
	frame := pointcloud.SynthFrame(cfg, 0)
	bounds, _ := frame.Bounds()
	g, _ := cell.NewGrid(bounds, cell.Size50)
	pose := geom.Pose{Pos: geom.V(0, 1.5, 3.0), Rot: geom.LookRotation(geom.V(0, -0.2, -1), geom.V(0, 1, 0))}
	return g, g.OccupiedCells(frame), pose
}

// TestRequestAllocs pins Request at six allocations warm: Unoccluded's
// depth buffer comes from depthBufs, not from make.
func TestRequestAllocs(t *testing.T) {
	g, occ, pose := requestWorld()
	v := New(g, DefaultParams())
	if n := testing.AllocsPerRun(50, func() { v.Request(occ, pose) }); n > 6 {
		t.Fatalf("Request: %v allocations, want ≤ 6", n)
	}
}

// TestRequestMatchesFreshBuffers: requests made from recycled depth
// buffers — left dirty by a larger bin count, or shared by concurrent
// callers — equal those made from fresh ones.
func TestRequestMatchesFreshBuffers(t *testing.T) {
	g, occ, pose := requestWorld()
	var vs []*Visibility
	for _, bins := range []int{96, 200, 8, 97} {
		p := DefaultParams()
		p.OcclusionBins = bins
		vs = append(vs, New(g, p))
	}
	poses := []geom.Pose{pose}
	for i := 0; i < 7; i++ {
		a := float64(i) * 2 * math.Pi / 7
		eye := geom.V(3*math.Sin(a), 1.2+0.1*float64(i), 3*math.Cos(a))
		poses = append(poses, geom.Pose{Pos: eye, Rot: geom.LookRotation(geom.V(0, 1, 0).Sub(eye), geom.V(0, 1, 0))})
	}
	want := make([][]Request, len(vs))
	for vi, v := range vs {
		for _, p := range poses {
			depthBufs = sync.Pool{} // a fresh buffer for every reference request
			want[vi] = append(want[vi], v.Request(occ, p))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(vs))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for vi := range vs {
					vi := (vi + w + round) % len(vs)
					for pi, p := range poses {
						if got := vs[vi].Request(occ, p); !slices.Equal(got.Cells, want[vi][pi].Cells) {
							errs <- fmt.Sprintf("bins %d, pose %d: %v, fresh %v", vs[vi].p.OcclusionBins, pi, got.Cells, want[vi][pi].Cells)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func BenchmarkVivoRequest(b *testing.B) {
	g, occ, pose := requestWorld()
	v := New(g, DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Request(occ, pose)
	}
}
