package vivo

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/tier"
)

// FrameBlocks holds one frame's encoded cells at every prepared density
// stride, as a content server would store them. Every stride's block is
// a tier view of one shared layered encode: the entries of coarser
// strides alias prefixes of the stride-1 block's buffer rather than
// holding independent encodes.
type FrameBlocks struct {
	// Occupied is the frame's occupied-cell set.
	Occupied *cell.Set
	// ByStride maps stride → cellID → encoded block.
	ByStride map[int]map[cell.ID]*codec.Block
}

// Store is the server-side content store: every frame of a video,
// partitioned on one grid and encoded per cell once, with a ladder of
// density rungs served as layer prefixes of that single encode. It is
// the data source for both the offline experiments and the TCP
// streaming server.
type Store struct {
	grid    *cell.Grid
	strides []int
	ladder  tier.Ladder
	fps     int
	// frames holds each frame once it is built. Only Frame and the build
	// touch it.
	frames []atomic.Pointer[FrameBlocks]
	// build is the playout-order encode still filling frames; nil for a
	// store assembled from finished frames (NewStore, ReadStore).
	build *build
}

// build tracks a BuildStore encode behind the store it returned.
// ready[fi] closes once frame fi is stored or its encode panicked
// (failed[fi], written before the close); done closes once every frame
// is one or the other.
type build struct {
	ready  []chan struct{}
	failed []error
	done   chan struct{}
	// waits counts Frame calls that found their frame not yet built
	// (vivo.frame_waits), resolved once so Frame never looks it up.
	waits *metrics.Counter
}

// BuildStore partitions and encodes the video in playout order and
// returns as soon as frame 0 is stored. Frame 0 is encoded first, alone,
// with its cells fanned out across the whole par pool; only then does a
// background build start frames 1…n−1, frame-parallel on the pool with
// each frame's cells encoded inline. Those frames become ready one by one
// behind Frame, which waits only for a frame not built yet, and Wait
// blocks until the last one is. The strides slice must include 1 (full
// density); it is sorted and deduplicated. Frame slots and each frame's
// blocks are filled by index, so the store is identical for any pool
// width.
//
// Each cell is encoded exactly once as a block of len(strides) layers
// and every rung is served as a layer-prefix view of that block — one
// encode serves every tier, and a coarse rung's bytes alias the dense
// rung's buffer. An encoder whose layer count is already set
// (Params.Layers > 0) keeps it.
//
// Unless the encoder already carries a cache, encoding runs through the
// process-wide content-addressed encode tier (internal/blockcache), so
// temporally static cells are encoded once and reused across frames.
// Caching never changes the stored bytes — only whether the coder reruns.
//
// The build encodes from its own copy of v.Frames and drops each source
// frame once it is encoded, so the raw video is not held beside the
// store. A panic encoding frame 0 is BuildStore's error, and no later
// frame is started; a panic in a later frame is re-raised, as its
// *par.PanicError, by whoever reads that frame.
func BuildStore(v *pointcloud.Video, g *cell.Grid, enc *codec.Encoder, strides []int) (*Store, error) {
	ss := dedupSorted(strides)
	if len(ss) == 0 || ss[0] != 1 {
		return nil, fmt.Errorf("vivo: strides must include 1, got %v", strides)
	}
	if enc.Cache == nil {
		enc = enc.Cached(blockcache.Blocks())
	}
	enc = enc.Layered(uint8(len(ss)))
	n := len(v.Frames)
	st := &Store{grid: g, strides: ss, ladder: tier.New(ss), fps: v.FPS, frames: make([]atomic.Pointer[FrameBlocks], n)}
	if n == 0 {
		return st, nil
	}

	// Wall-clock sampling happens inside the obs/metrics layers (Begin/End,
	// TimeMillis) — the build path itself never reads the clock, so
	// the determinism check holds: stored bytes are a pure function of the
	// input video, grid, and encoder parameters.
	reg := metrics.Default()
	tr := obs.Default()
	b := &build{ready: make([]chan struct{}, n), failed: make([]error, n), done: make(chan struct{}), waits: reg.Counter("vivo.frame_waits")}
	for fi := range b.ready {
		b.ready[fi] = make(chan struct{})
	}
	st.build = b
	src := append([]*pointcloud.Cloud(nil), v.Frames...)
	encoded := reg.Counter("vivo.frames_encoded")
	stopBuild := reg.Histogram("vivo.build_store", nil).TimeMillis()
	// buildFrame stores frame fi, its cells encoded width wide, and closes
	// its ready channel; a panic becomes the frame's *par.PanicError.
	buildFrame := func(fi, width int) {
		defer close(b.ready[fi])
		defer func() {
			if r := recover(); r != nil {
				b.failed[fi] = framePanic(fi, r)
			}
		}()
		// The span sits at frame −1: a video frame's index is not a
		// session frame's, and Analyze skips negative frames.
		sp := tr.Begin(-1, obs.PipelineUser, obs.StageEncode)
		stopFrame := reg.Histogram("vivo.encode_frame_ms", nil).TimeMillis()
		st.frames[fi].Store(encodeFrame(src[fi], g, enc, st.ladder, width))
		src[fi] = nil
		stopFrame()
		sp.End()
		encoded.Inc()
	}
	buildFrame(0, par.Workers())
	if err := b.failed[0]; err != nil {
		return nil, err
	}
	go func() {
		defer close(b.done)
		// Every item returns nil, so par schedules every frame and returns
		// nil: a frame is never cancelled, and a reader of any index is
		// always woken.
		_ = par.ForEach(context.Background(), n-1, func(i int) error {
			buildFrame(i+1, 1)
			return nil
		})
		stopBuild()
	}()
	return st, nil
}

// BuildVideo builds v's store, as BuildStore does, on a grid of cellSize
// cells over the video's own bounds. An empty video is an error.
func BuildVideo(v *pointcloud.Video, cellSize float64, enc *codec.Encoder, strides []int) (*Store, error) {
	b, ok := v.Bounds()
	if !ok {
		return nil, fmt.Errorf("vivo: empty video")
	}
	g, err := cell.NewGrid(b, cellSize)
	if err != nil {
		return nil, err
	}
	return BuildStore(v, g, enc, strides)
}

// framePanic is frame fi's *par.PanicError for a panic recovered while
// building it. A cell's panic arrives as the *par.PanicError of
// encodeFrame's fan-out; it keeps its value and stack under the frame's
// index.
func framePanic(fi int, r any) *par.PanicError {
	if pe, ok := r.(*par.PanicError); ok {
		return &par.PanicError{Index: fi, Value: pe.Value, Stack: pe.Stack}
	}
	return &par.PanicError{Index: fi, Value: r, Stack: debug.Stack()}
}

// NewStore assembles a store from pre-built frames — the ingestion path
// for content encoded elsewhere. The strides slice must include 1 and is
// sorted and deduplicated; each frame's ByStride maps are used as given
// (the densest rung's map is what the serving paths slice).
func NewStore(g *cell.Grid, strides []int, fps int, frames []*FrameBlocks) (*Store, error) {
	ss := dedupSorted(strides)
	if len(ss) == 0 || ss[0] != 1 {
		return nil, fmt.Errorf("vivo: strides must include 1, got %v", strides)
	}
	return builtStore(g, ss, fps, frames), nil
}

// builtStore wraps finished frames (strides already validated).
func builtStore(g *cell.Grid, strides []int, fps int, frames []*FrameBlocks) *Store {
	st := &Store{grid: g, strides: strides, ladder: tier.New(strides), fps: fps, frames: make([]atomic.Pointer[FrameBlocks], len(frames))}
	for fi, fb := range frames {
		st.frames[fi].Store(fb)
	}
	return st
}

// encodeFrame partitions and encodes one frame: each cell once, with
// every coarser stride's entry a layer-prefix view of the full block. The
// cells are fanned out width wide on par, largest first: a frame is
// stored only once its biggest cell is, so that cell starts first rather
// than wherever its ID falls. Their blocks are collected by index in
// ascending cell-ID order, so the frame is the same at any width. Every
// cell runs even when one panics, and the lowest-ID cell's panic is
// re-raised as a *par.PanicError, so which panic surfaces does not depend
// on the width or the order either.
// It yields after every cell: a build runs beside the frames it already
// serves, and without the yield the pool's encoders hold every P for a
// whole preemption slice while the frame loop, writers and readers wait.
func encodeFrame(frame *pointcloud.Cloud, g *cell.Grid, enc *codec.Encoder, lad tier.Ladder, width int) *FrameBlocks {
	parts := g.Partition(frame)
	occ := cell.NewSet(g.NumCells())
	for id := range parts {
		occ.Add(id)
	}
	ids := occ.IDs()
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(parts[ids[b]]) - len(parts[ids[a]]) })
	blocks := make([]*codec.Block, len(ids))
	panics := make([]*par.PanicError, len(ids))
	// Every item returns nil (a panic is recorded, not returned), so par
	// runs every cell and returns nil.
	_ = par.ForEachN(context.Background(), width, len(order), func(j int) error {
		i := order[j]
		defer func() {
			if r := recover(); r != nil {
				panics[i] = &par.PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		id := ids[i]
		blocks[i] = enc.EncodeCell(id, frame, parts[id], g.Bounds(id))
		runtime.Gosched()
		return nil
	})
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
	full := make(map[cell.ID]*codec.Block, len(ids))
	for i, id := range ids {
		full[id] = blocks[i]
	}
	return &FrameBlocks{Occupied: occ, ByStride: rungMaps(full, lad)}
}

// rungMaps presents one frame's blocks at every prepared stride: the
// densest rung holds the blocks themselves, each coarser rung their
// layer-prefix views.
func rungMaps(full map[cell.ID]*codec.Block, lad tier.Ladder) map[int]map[cell.ID]*codec.Block {
	by := make(map[int]map[cell.ID]*codec.Block, lad.Rungs())
	by[lad.StrideAt(0)] = full
	for r := 1; r < lad.Rungs(); r++ {
		m := make(map[cell.ID]*codec.Block, len(full))
		for id, b := range full {
			m[id] = b.TierView(lad.LayersFor(r, b.Layers()))
		}
		by[lad.StrideAt(r)] = m
	}
	return by
}

func dedupSorted(in []int) []int {
	m := map[int]bool{}
	for _, s := range in {
		if s >= 1 {
			m[s] = true
		}
	}
	out := make([]int, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Grid returns the partition grid.
func (s *Store) Grid() *cell.Grid { return s.grid }

// FPS returns the content frame rate.
func (s *Store) FPS() int { return s.fps }

// NumFrames returns the stored frame count.
func (s *Store) NumFrames() int { return len(s.frames) }

// Strides returns the prepared density ladder.
func (s *Store) Strides() []int { return append([]int(nil), s.strides...) }

// Frame returns frame fi's blocks (fi wraps around for looped playback).
// A built frame costs one atomic load; a frame the build has not stored
// yet is waited for (counted in vivo.frame_waits).
func (s *Store) Frame(fi int) *FrameBlocks {
	n := len(s.frames)
	if n == 0 {
		return nil
	}
	fi %= n
	if fi < 0 {
		fi += n
	}
	if fb := s.frames[fi].Load(); fb != nil {
		return fb
	}
	return s.awaitFrame(fi)
}

// awaitFrame is Frame's slow path: it blocks until the build has stored
// frame fi, re-raising the frame's panic if its encode panicked. A store
// without a build has nothing to wait for.
func (s *Store) awaitFrame(fi int) *FrameBlocks {
	b := s.build
	if b == nil {
		return nil
	}
	b.waits.Inc()
	<-b.ready[fi]
	if err := b.failed[fi]; err != nil {
		panic(err)
	}
	return s.frames[fi].Load()
}

// Wait blocks until the build has finished every frame; it returns at
// once for a store from NewStore or ReadStore. A server waits for it
// before dropping a store, so no encode outlives its session.
func (s *Store) Wait() {
	if s.build != nil {
		<-s.build.done
	}
}

// Ladder returns the stride↔tier ladder of the prepared rungs.
func (s *Store) Ladder() tier.Ladder { return s.ladder }

// nearestStride maps an arbitrary requested stride to the closest prepared
// one (ties resolve to the denser option).
func (s *Store) nearestStride(stride int) int {
	return s.ladder.StrideAt(s.ladder.RungFor(stride))
}

// Block returns the encoded block of a cell at (the nearest prepared
// stride to) the requested stride — a layer-prefix view of the cell's
// single encode — or nil when the cell is unoccupied.
func (s *Store) Block(fi int, id cell.ID, stride int) *codec.Block {
	fb := s.Frame(fi)
	if fb == nil {
		return nil
	}
	return fb.ByStride[s.nearestStride(stride)][id]
}

// LayeredBlock returns the cell's full layered block (the densest rung),
// from which any tier prefix or upgrade delta can be sliced, or nil when
// the cell is unoccupied.
func (s *Store) LayeredBlock(fi int, id cell.ID) *codec.Block {
	fb := s.Frame(fi)
	if fb == nil {
		return nil
	}
	return fb.ByStride[s.strides[0]][id]
}

// UpgradeBytes returns the bytes a subscriber already holding a cell at
// fromStride must receive to reach toStride: the enhancement delta
// between the two tiers' prefixes. Downgrades (and unoccupied cells)
// cost zero.
func (s *Store) UpgradeBytes(fi int, id cell.ID, fromStride, toStride int) int {
	b := s.LayeredBlock(fi, id)
	if b == nil {
		return 0
	}
	from := s.ladder.LayersFor(s.ladder.RungFor(fromStride), b.Layers())
	to := s.ladder.LayersFor(s.ladder.RungFor(toStride), b.Layers())
	return len(b.Delta(from, to))
}

// SizeOracle returns a Request.Bytes oracle for frame fi.
func (s *Store) SizeOracle(fi int) func(id cell.ID, stride int) int {
	return func(id cell.ID, stride int) int {
		if b := s.Block(fi, id, stride); b != nil {
			return b.Size()
		}
		return 0
	}
}

// PointsOracle returns a Request.Points oracle for frame fi.
func (s *Store) PointsOracle(fi int) func(id cell.ID, stride int) int {
	return func(id cell.ID, stride int) int {
		if b := s.Block(fi, id, stride); b != nil {
			return b.NumPoints
		}
		return 0
	}
}

// FrameBytes returns the full-density encoded size of frame fi (what the
// vanilla player downloads).
func (s *Store) FrameBytes(fi int) int {
	fb := s.Frame(fi)
	if fb == nil {
		return 0
	}
	total := 0
	for _, b := range fb.ByStride[1] {
		total += b.Size()
	}
	return total
}

// AvgFrameBytes returns the mean full-density frame size. It reads every
// frame, so on a store still building it waits for the whole build.
func (s *Store) AvgFrameBytes() float64 {
	n := s.NumFrames()
	if n == 0 {
		return 0
	}
	total := 0
	for i := 0; i < n; i++ {
		total += s.FrameBytes(i)
	}
	return float64(total) / float64(n)
}
