package vivo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/tier"
)

// refBuildStore is BuildStore as it stood before the playout-order build,
// verbatim but for where the frames land (a slice handed to NewStore, as
// the Store no longer holds a plain one): every frame encoded on the pool,
// and nothing returned until the last one is.
func refBuildStore(v *pointcloud.Video, g *cell.Grid, enc *codec.Encoder, strides []int) (*Store, error) {
	ss := dedupSorted(strides)
	if len(ss) == 0 || ss[0] != 1 {
		return nil, fmt.Errorf("vivo: strides must include 1, got %v", strides)
	}
	if enc.Cache == nil {
		enc = enc.Cached(blockcache.Blocks())
	}
	enc = enc.Layered(uint8(len(ss)))
	frames := make([]*FrameBlocks, len(v.Frames))
	ladder := tier.New(ss)

	reg := metrics.Default()
	tr := obs.Default()
	stopBuild := reg.Histogram("vivo.build_store", nil).TimeMillis()
	if err := par.ForEach(context.Background(), len(v.Frames), func(fi int) error {
		sp := tr.Begin(fi, obs.PipelineUser, obs.StageEncode)
		stopFrame := reg.Histogram("vivo.encode_frame_ms", nil).TimeMillis()
		frames[fi] = refEncodeFrame(v.Frames[fi], g, enc, ladder)
		stopFrame()
		sp.End()
		return nil
	}); err != nil {
		return nil, err
	}
	stopBuild()
	reg.Counter("vivo.frames_encoded").Add(int64(len(v.Frames)))
	return NewStore(g, ss, v.FPS, frames)
}

// refEncodeFrame is encodeFrame before it yielded between cells.
func refEncodeFrame(frame *pointcloud.Cloud, g *cell.Grid, enc *codec.Encoder, lad tier.Ladder) *FrameBlocks {
	parts := g.Partition(frame)
	occ := cell.NewSet(g.NumCells())
	full := make(map[cell.ID]*codec.Block, len(parts))
	for id, idxs := range parts {
		occ.Add(id)
		full[id] = enc.EncodeCell(id, frame, idxs, g.Bounds(id))
	}
	return &FrameBlocks{Occupied: occ, ByStride: rungMaps(full, lad)}
}

// sameStore fails t unless got holds ref's frames: the same occupied IDs,
// and at every stride the same cells with the same bytes, layer offsets
// and layer point counts.
func sameStore(t *testing.T, what string, got, ref *Store) {
	t.Helper()
	if got.NumFrames() != ref.NumFrames() || got.FPS() != ref.FPS() || !slices.Equal(got.Strides(), ref.Strides()) {
		t.Fatalf("%s: %d frames at %d fps, strides %v; reference %d at %d, %v", what,
			got.NumFrames(), got.FPS(), got.Strides(), ref.NumFrames(), ref.FPS(), ref.Strides())
	}
	for fi := 0; fi < ref.NumFrames(); fi++ {
		gf, rf := got.Frame(fi), ref.Frame(fi)
		if !slices.Equal(gf.Occupied.IDs(), rf.Occupied.IDs()) {
			t.Fatalf("%s: frame %d occupied %v, reference %v", what, fi, gf.Occupied.IDs(), rf.Occupied.IDs())
		}
		for _, stride := range ref.Strides() {
			gm, rm := gf.ByStride[stride], rf.ByStride[stride]
			if len(gm) != len(rm) {
				t.Fatalf("%s: frame %d stride %d: %d blocks, reference %d", what, fi, stride, len(gm), len(rm))
			}
			for id, rb := range rm {
				gb := gm[id]
				if gb == nil || !bytes.Equal(gb.Data, rb.Data) || !slices.Equal(gb.LayerOffsets, rb.LayerOffsets) ||
					!slices.Equal(gb.LayerPoints, rb.LayerPoints) {
					t.Fatalf("%s: frame %d stride %d cell %d differs from the reference", what, fi, stride, id)
				}
			}
		}
	}
}

// testVideo is a small seeded video and a grid around it.
func testVideo(t testing.TB, frames, points int) (*pointcloud.Video, *cell.Grid) {
	t.Helper()
	v := pointcloud.SynthVideo(pointcloud.SynthConfig{Frames: frames, FPS: 30, PointsPerFrame: points, Seed: 5, Sway: 1})
	b, _ := v.Bounds()
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	return v, g
}

// TestBuildStoreMatchesReference holds the playout-order build to the
// whole-video build it replaced: the same store at pool widths 1, 2 and
// 8, with the process-wide encode tier on (emptied first, so the build
// encodes) and off, for a one-frame video and a longer one. The reference
// encodes with the tier off.
func TestBuildStoreMatchesReference(t *testing.T) {
	defer par.SetWorkers(0)
	defer blockcache.SetBudgetMB(-1)
	strides := []int{1, 2, 4}
	for _, size := range []struct{ frames, points int }{{1, 6_000}, {7, 8_000}} {
		v, g := testVideo(t, size.frames, size.points)
		blockcache.SetBudgetMB(0)
		ref, err := refBuildStore(v, g, codec.NewEncoder(codec.DefaultParams()), strides)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, tierMB := range []int{0, 64} {
				par.SetWorkers(workers)
				blockcache.SetBudgetMB(0)
				blockcache.SetBudgetMB(tierMB)
				st, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()), strides)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%d frames, width %d, tier %d MB", size.frames, workers, tierMB)
				sameStore(t, what, st, ref)
				st.Wait()
				if v.Frames[size.frames-1] == nil {
					t.Fatalf("%s: the build dropped the caller's frames, not its own copy", what)
				}
			}
		}
	}
}

// frameKeys returns the encode-tier keys of each frame's cells, in frame
// order, by building each frame alone through a recording cache.
func frameKeys(t *testing.T, v *pointcloud.Video, g *cell.Grid, strides []int) []map[codec.CacheKey]bool {
	t.Helper()
	out := make([]map[codec.CacheKey]bool, len(v.Frames))
	for fi, f := range v.Frames {
		rec := &keyRecorder{keys: map[codec.CacheKey]bool{}}
		one := &pointcloud.Video{FPS: v.FPS, Frames: []*pointcloud.Cloud{f}}
		if _, err := refBuildStore(one, g, codec.NewEncoder(codec.DefaultParams()).Cached(rec), strides); err != nil {
			t.Fatal(err)
		}
		out[fi] = rec.keys
	}
	return out
}

type keyRecorder struct {
	mu   sync.Mutex
	keys map[codec.CacheKey]bool
}

func (r *keyRecorder) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	r.mu.Lock()
	r.keys[key] = true
	r.mu.Unlock()
	return encode()
}

// gateCache encodes the cells in pass at once and holds every other cell
// until gate closes.
type gateCache struct {
	pass map[codec.CacheKey]bool
	gate chan struct{}
}

func (c *gateCache) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	if !c.pass[key] {
		<-c.gate
	}
	return encode()
}

// TestBuildStoreReturnsAtFirstFrame: with every cell after frame 0's held
// at the encoder, BuildStore still returns; Frame(1) blocks — one counted
// wait — until the cells are released, then returns the reference bytes.
func TestBuildStoreReturnsAtFirstFrame(t *testing.T) {
	strides := []int{1, 2}
	v, g := testVideo(t, 3, 6_000)
	ref, err := refBuildStore(v, g, codec.NewEncoder(codec.DefaultParams()), strides)
	if err != nil {
		t.Fatal(err)
	}
	gc := &gateCache{pass: frameKeys(t, v, g, strides)[0], gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gc.gate) })
	defer release()

	type built struct {
		st  *Store
		err error
	}
	ret := make(chan built, 1)
	go func() {
		st, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(gc), strides)
		ret <- built{st, err}
	}()
	var st *Store
	select {
	case b := <-ret:
		if b.err != nil {
			t.Fatal(b.err)
		}
		st = b.st
	case <-time.After(10 * time.Second):
		t.Fatal("BuildStore did not return with frame 0 built and frame 1 held")
	}

	waits := metrics.Default().Counter("vivo.frame_waits")
	before := waits.Value()
	got := make(chan *FrameBlocks, 1)
	go func() { got <- st.Frame(1) }()
	deadline := time.Now().Add(10 * time.Second)
	for waits.Value() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-got:
		t.Fatal("Frame(1) returned while its cells were held")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("Frame(1) still blocked after the cells were released")
	}
	st.Wait()
	if d := waits.Value() - before; d != 1 {
		t.Errorf("vivo.frame_waits rose by %d, want 1", d)
	}
	sameStore(t, "held build", st, ref)
}

// TestFrameReadyAllocs: reading a built frame allocates nothing.
func TestFrameReadyAllocs(t *testing.T) {
	v, g := testVideo(t, 3, 2_000)
	st, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	st.Wait()
	fi := 0
	if a := testing.AllocsPerRun(1000, func() { _ = st.Frame(fi); fi++ }); a != 0 {
		t.Errorf("Frame on a built store: %v allocs, want 0", a)
	}
}

// panicCache panics on the first of a frame's own cells (keys in boom) and
// encodes everything else.
type panicCache struct{ boom map[codec.CacheKey]bool }

func (c *panicCache) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	if c.boom[key] {
		panic("encoder blew up")
	}
	return encode()
}

// TestBuildStorePanicInFrame: a panic encoding frame 0 is BuildStore's
// error; one encoding frame k is re-raised, as its *par.PanicError, by
// every read of frame k — never a nil frame, never a hang — while the
// other frames serve and Wait returns.
func TestBuildStorePanicInFrame(t *testing.T) {
	strides := []int{1, 2}
	v, g := testVideo(t, 4, 4_000)
	keys := frameKeys(t, v, g, strides)
	own := func(k int) map[codec.CacheKey]bool {
		m := map[codec.CacheKey]bool{}
		for key := range keys[k] {
			shared := false
			for j := range keys {
				shared = shared || (j != k && keys[j][key])
			}
			if !shared {
				m[key] = true
			}
		}
		if len(m) == 0 {
			t.Fatalf("frame %d has no cell of its own to fail", k)
		}
		return m
	}

	_, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(&panicCache{own(0)}), strides)
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("panic in frame 0: BuildStore returned %v, want a *par.PanicError for index 0", err)
	}

	const k = 2
	st, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(&panicCache{own(k)}), strides)
	if err != nil {
		t.Fatalf("panic in frame %d failed BuildStore: %v", k, err)
	}
	st.Wait()
	for fi := 0; fi < st.NumFrames(); fi++ {
		if fi == k {
			continue
		}
		if st.Frame(fi) == nil {
			t.Errorf("frame %d is nil beside a panicked frame %d", fi, k)
		}
	}
	for read := 0; read < 2; read++ {
		func() {
			defer func() {
				pe, ok := recover().(*par.PanicError)
				if !ok || pe.Index != k {
					t.Errorf("read %d of frame %d: recovered %v, want its *par.PanicError", read, k, pe)
				}
			}()
			fb := st.Frame(k)
			t.Errorf("read %d of frame %d returned %v instead of re-raising its panic", read, k, fb)
		}()
	}
}
