package vivo

import (
	"context"
	"fmt"
	"sort"

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
	frames  []*FrameBlocks
	fps     int
}

// BuildStore partitions and encodes the whole video, spreading frames
// across the par pool (the encoder is stateless). The strides slice must
// include 1 (full density); it is sorted and deduplicated. Frame slots
// are filled by index, so the store is identical for any pool width.
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
func BuildStore(v *pointcloud.Video, g *cell.Grid, enc *codec.Encoder, strides []int) (*Store, error) {
	ss := dedupSorted(strides)
	if len(ss) == 0 || ss[0] != 1 {
		return nil, fmt.Errorf("vivo: strides must include 1, got %v", strides)
	}
	if enc.Cache == nil {
		enc = enc.Cached(blockcache.Blocks())
	}
	enc = enc.Layered(uint8(len(ss)))
	st := &Store{grid: g, strides: ss, ladder: tier.New(ss), fps: v.FPS, frames: make([]*FrameBlocks, len(v.Frames))}

	// Wall-clock sampling happens inside the obs/metrics layers (Begin/End,
	// TimeMillis) — the build path itself never reads the clock, so
	// the determinism check holds: stored bytes are a pure function of the
	// input video, grid, and encoder parameters.
	reg := metrics.Default()
	tr := obs.Default()
	stopBuild := reg.Histogram("vivo.build_store", nil).TimeMillis()
	if err := par.ForEach(context.Background(), len(v.Frames), func(fi int) error {
		sp := tr.Begin(fi, obs.PipelineUser, obs.StageEncode)
		stopFrame := reg.Histogram("vivo.encode_frame_ms", nil).TimeMillis()
		st.frames[fi] = encodeFrame(v.Frames[fi], g, enc, st.ladder)
		stopFrame()
		sp.End()
		return nil
	}); err != nil {
		return nil, err
	}
	stopBuild()
	reg.Counter("vivo.frames_encoded").Add(int64(len(v.Frames)))
	return st, nil
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
	return &Store{grid: g, strides: ss, ladder: tier.New(ss), fps: fps, frames: frames}, nil
}

// encodeFrame partitions and encodes one frame: each cell once, with
// every coarser stride's entry a layer-prefix view of the full block.
func encodeFrame(frame *pointcloud.Cloud, g *cell.Grid, enc *codec.Encoder, lad tier.Ladder) *FrameBlocks {
	parts := g.Partition(frame)
	occ := cell.NewSet(g.NumCells())
	full := make(map[cell.ID]*codec.Block, len(parts))
	for id, idxs := range parts {
		occ.Add(id)
		full[id] = enc.EncodeCell(id, frame, idxs, g.Bounds(id))
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
func (s *Store) Frame(fi int) *FrameBlocks {
	if len(s.frames) == 0 {
		return nil
	}
	fi %= len(s.frames)
	if fi < 0 {
		fi += len(s.frames)
	}
	return s.frames[fi]
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

// AvgFrameBytes returns the mean full-density frame size.
func (s *Store) AvgFrameBytes() float64 {
	if len(s.frames) == 0 {
		return 0
	}
	total := 0
	for i := range s.frames {
		total += s.FrameBytes(i)
	}
	return float64(total) / float64(len(s.frames))
}
