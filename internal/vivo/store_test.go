package vivo

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/testutil/leakcheck"
)

// orderCache watches a build's encodes. It counts computes of cells that
// are not frame 0's (later) started before every one of frame 0's cells
// was computed, and the most frame-0 computes in flight at once. At width
// ≥ 2 a frame-0 compute waits, up to a bound, for a second one to join it,
// so a fan-out shows as two in flight however the scheduler runs it.
type orderCache struct {
	first map[codec.CacheKey]bool
	pair  bool // wait for a second frame-0 compute

	mu       sync.Mutex
	done     map[codec.CacheKey]bool // frame-0 keys computed
	inFlight int
	most     int
	early    int
	two      chan struct{}
	twoOnce  sync.Once
}

func (c *orderCache) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	if !c.first[key] {
		c.mu.Lock()
		if len(c.done) < len(c.first) {
			c.early++
		}
		c.mu.Unlock()
		return encode()
	}
	c.mu.Lock()
	c.inFlight++
	c.most = max(c.most, c.inFlight)
	if c.inFlight == 2 {
		c.twoOnce.Do(func() { close(c.two) })
	}
	c.mu.Unlock()
	if c.pair {
		select {
		case <-c.two:
		case <-time.After(2 * time.Second):
			c.twoOnce.Do(func() { close(c.two) }) // give up once, not per cell
		}
	}
	blk := encode()
	c.mu.Lock()
	c.inFlight--
	c.done[key] = true
	c.mu.Unlock()
	return blk
}

// TestBuildStoreEncodesFrameZeroFirst: no cell of a later frame is
// computed before every cell of frame 0 is, and at pool width ≥ 2 frame
// 0's cells are computed side by side, not one after another. The store
// is the reference's at every width.
func TestBuildStoreEncodesFrameZeroFirst(t *testing.T) {
	defer par.SetWorkers(0)
	strides := []int{1, 2}
	v, g := testVideo(t, 4, 6_000)
	ref, err := refBuildStore(v, g, codec.NewEncoder(codec.DefaultParams()), strides)
	if err != nil {
		t.Fatal(err)
	}
	first := frameKeys(t, v, g, strides)[0]
	if len(first) < 2 {
		t.Fatalf("frame 0 has %d cells: nothing to fan out", len(first))
	}
	for _, width := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("width %d", width), func(t *testing.T) {
			par.SetWorkers(width)
			oc := &orderCache{first: first, pair: width >= 2, done: map[codec.CacheKey]bool{}, two: make(chan struct{})}
			st, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(oc), strides)
			if err != nil {
				t.Fatal(err)
			}
			st.Wait()
			oc.mu.Lock()
			early, most := oc.early, oc.most
			oc.mu.Unlock()
			if early != 0 {
				t.Errorf("%d cells of later frames computed before frame 0 was", early)
			}
			if want := min(width, 2); most < want {
				t.Errorf("at most %d of frame 0's cells in flight at once, want %d", most, want)
			}
			sameStore(t, fmt.Sprintf("width %d", width), st, ref)
		})
	}
}

// panicGate panics on the cells in boom, holds every other cell not in
// pass until gate closes, and counts the cells it held.
type panicGate struct {
	boom, pass map[codec.CacheKey]bool
	gate       chan struct{}
	held       atomic.Int64
}

func (c *panicGate) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	if c.boom[key] {
		panic("encoder blew up")
	}
	if !c.pass[key] {
		c.held.Add(1)
		<-c.gate
	}
	return encode()
}

// TestBuildStoreFrameZeroPanicStartsNothing: a panic in one of frame 0's
// cells is BuildStore's *par.PanicError for index 0 with the panic's own
// value, returned without waiting on a later frame (they are held at the
// encoder), at every pool width. No later frame's cell is ever computed,
// and no goroutine is left behind.
func TestBuildStoreFrameZeroPanicStartsNothing(t *testing.T) {
	defer par.SetWorkers(0)
	strides := []int{1, 2}
	v, g := testVideo(t, 4, 6_000)
	first := frameKeys(t, v, g, strides)[0]
	var boom codec.CacheKey
	for k := range first {
		boom = k
		break
	}
	for _, width := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("width %d", width), func(t *testing.T) {
			par.SetWorkers(width)
			snap := leakcheck.Take()
			pg := &panicGate{boom: map[codec.CacheKey]bool{boom: true}, pass: first, gate: make(chan struct{})}
			release := sync.OnceFunc(func() { close(pg.gate) })
			defer release()
			ret := make(chan error, 1)
			go func() {
				_, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(pg), strides)
				ret <- err
			}()
			var err error
			select {
			case err = <-ret:
			case <-time.After(10 * time.Second):
				release()
				<-ret
				t.Fatal("BuildStore waited on later frames after frame 0 panicked")
			}
			var pe *par.PanicError
			if !errors.As(err, &pe) || pe.Index != 0 || pe.Value != "encoder blew up" {
				t.Fatalf("BuildStore returned %v, want a *par.PanicError for index 0 with the panic's value", err)
			}
			if n := pg.held.Load(); n != 0 {
				t.Errorf("%d cells of later frames reached the encoder", n)
			}
			release()
			snap.Check(t)
		})
	}
}

// cellRecorder records the cell of every encode in the order the encodes
// finish, and panics, with the cell's ID as the value, after encoding a
// cell in boom.
type cellRecorder struct {
	boom map[cell.ID]bool

	mu    sync.Mutex
	cells []cell.ID
}

func (c *cellRecorder) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	blk := encode()
	c.mu.Lock()
	c.cells = append(c.cells, blk.CellID)
	c.mu.Unlock()
	if c.boom[blk.CellID] {
		panic(blk.CellID)
	}
	return blk
}

// largestFirst returns frame's occupied cells by point count, largest
// first, ties in ascending ID order.
func largestFirst(g *cell.Grid, frame *pointcloud.Cloud) []cell.ID {
	parts := g.Partition(frame)
	ids := make([]cell.ID, 0, len(parts))
	for id := range parts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	slices.SortStableFunc(ids, func(a, b cell.ID) int { return len(parts[b]) - len(parts[a]) })
	return ids
}

// TestBuildStoreEncodesLargestCellFirst: at pool width 1, where the
// fan-out runs inline, frame 0's cells are encoded largest first, ties in
// ID order, and the store is still the reference's.
func TestBuildStoreEncodesLargestCellFirst(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	strides := []int{1, 2}
	v, g := testVideo(t, 3, 6_000)
	ref, err := refBuildStore(v, g, codec.NewEncoder(codec.DefaultParams()), strides)
	if err != nil {
		t.Fatal(err)
	}
	want := largestFirst(g, v.Frames[0])
	rec := &cellRecorder{}
	st, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(rec), strides)
	if err != nil {
		t.Fatal(err)
	}
	st.Wait()
	rec.mu.Lock()
	got := rec.cells[:min(len(rec.cells), len(want))]
	rec.mu.Unlock()
	if !slices.Equal(got, want) {
		t.Errorf("frame 0 encoded cells %v, want largest first %v", got, want)
	}
	if slices.IsSorted(want) {
		t.Errorf("frame 0's cells %v are in ID order by size too: the test shows nothing", want)
	}
	sameStore(t, "width 1", st, ref)
}

// TestBuildStoreReportsLowestCellPanic: when several of frame 0's cells
// panic — here the largest, which is encoded first, and two others — the
// error BuildStore returns carries the lowest cell ID's panic value at
// every pool width, as the ascending-ID fan-out did at width 1.
func TestBuildStoreReportsLowestCellPanic(t *testing.T) {
	defer par.SetWorkers(0)
	strides := []int{1, 2}
	v, g := testVideo(t, 3, 6_000)
	order := largestFirst(g, v.Frames[0])
	byID := slices.Clone(order)
	slices.Sort(byID)
	boom := map[cell.ID]bool{order[0]: true, byID[len(byID)/2]: true, byID[len(byID)-1]: true}
	lowest := byID[len(byID)-1]
	for id := range boom {
		lowest = min(lowest, id)
	}
	if lowest == order[0] {
		t.Fatalf("the largest cell %d has the lowest panicking ID: the test shows nothing", lowest)
	}
	for _, width := range []int{1, 2, 8} {
		par.SetWorkers(width)
		_, err := BuildStore(v, g, codec.NewEncoder(codec.DefaultParams()).Cached(&cellRecorder{boom: boom}), strides)
		var pe *par.PanicError
		if !errors.As(err, &pe) || pe.Index != 0 || pe.Value != lowest {
			t.Fatalf("width %d: BuildStore returned %v, want frame 0's *par.PanicError with cell %d's value", width, err, lowest)
		}
	}
}
