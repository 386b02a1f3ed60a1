package blockcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/pointcloud"
)

// testCloud builds a deterministic cloud of n points inside the unit cell.
func testCloud(n int, seed uint8) *pointcloud.Cloud {
	c := &pointcloud.Cloud{Points: make([]pointcloud.Point, n)}
	for i := 0; i < n; i++ {
		c.Points[i] = pointcloud.Point{
			Pos: geom.V(
				float64(i%97)/97,
				float64((i*7+int(seed))%89)/89,
				float64(i%71)/71,
			),
			R: uint8(i), G: uint8(i * 3), B: seed,
		}
	}
	return c
}

// unitAABB is the cell bounds every test encodes against.
func unitAABB() geom.AABB { return geom.AABB{Max: geom.V(1, 1, 1)} }

// TestEncodeCacheParity proves the cached encoder emits byte-identical
// blocks: every block is content-addressed, so a hit returns exactly the
// bytes a fresh encode would produce.
func TestEncodeCacheParity(t *testing.T) {
	c := testCloud(5000, 1)
	idxs := make([]int, c.Len())
	for i := range idxs {
		idxs[i] = i
	}
	for _, p := range []codec.Params{
		{QuantBits: 10},
		{QuantBits: 8, Layers: 1},
		{QuantBits: 8, Layers: 4},
	} {
		plain := codec.NewEncoder(p)
		cached := plain.Cached(BlockCacheOn(New("t", 8<<20, metrics.NewRegistry())))
		want := plain.EncodeCell(cell.ID(3), c, idxs, unitAABB())
		for round := 0; round < 3; round++ { // round 0 misses, 1-2 hit
			got := cached.EncodeCell(cell.ID(3), c, idxs, unitAABB())
			if got.NumPoints != want.NumPoints || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("params %+v round %d: cached block differs", p, round)
			}
		}
	}
}

// TestDecodeCacheParity proves a decode-cache hit returns the same cell a
// cold decode produces.
func TestDecodeCacheParity(t *testing.T) {
	c := testCloud(5000, 2)
	idxs := make([]int, c.Len())
	for i := range idxs {
		idxs[i] = i
	}
	blk := codec.NewEncoder(codec.Params{QuantBits: 9, Layers: 3}).
		EncodeCell(cell.ID(0), c, idxs, unitAABB())
	var plain codec.Decoder
	cached := codec.Decoder{Cache: CellCacheOn(New("t", 8<<20, metrics.NewRegistry()))}
	want, err := plain.Decode(blk.Data)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := cached.Decode(blk.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("round %d: %d points, want %d", round, len(got.Points), len(want.Points))
		}
		for i := range got.Points {
			if got.Points[i] != want.Points[i] {
				t.Fatalf("round %d: point %d differs", round, i)
			}
		}
	}
}

// TestCounters checks hit/miss/bytes-saved accounting on a tiny tier.
func TestCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	tier := New("enc", 1<<20, reg)
	bc := BlockCacheOn(tier)
	key := codec.HashBytes([]byte("cell-a"))
	mk := func() *codec.Block {
		return &codec.Block{NumPoints: 1, Data: []byte{1, 2, 3, 4}}
	}
	bc.Block(key, mk)
	bc.Block(key, mk)
	bc.Block(key, mk)
	if got := reg.Counter("blockcache.enc.misses").Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.Counter("blockcache.enc.hits").Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := reg.Counter("blockcache.enc.bytes_saved").Value(); got != 2*(4+entryOverhead) {
		t.Errorf("bytes_saved = %d, want %d", got, 2*(4+entryOverhead))
	}
}

// TestLRUEviction fills a tier past a tiny budget and checks the cold end
// falls out while the hot end survives.
func TestLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	// Room for ~4 entries of (1000 + overhead) bytes.
	budget := int64(4 * (1000 + entryOverhead))
	tier := New("e", budget, reg)
	bc := BlockCacheOn(tier)
	keys := make([]codec.CacheKey, 8)
	payload := make([]byte, 1000)
	for i := range keys {
		keys[i] = codec.HashBytes([]byte(fmt.Sprintf("cell-%d", i)))
		bc.Block(keys[i], func() *codec.Block {
			return &codec.Block{NumPoints: 1, Data: payload}
		})
		bc.Block(keys[0], func() *codec.Block { // keep key 0 hot
			t.Error("key 0 evicted while hot")
			return &codec.Block{NumPoints: 1, Data: payload}
		})
	}
	if tier.Used() > budget {
		t.Errorf("used %d exceeds budget %d", tier.Used(), budget)
	}
	if n := tier.Len(); n > 4 {
		t.Errorf("%d entries retained, budget fits 4", n)
	}
	if reg.Counter("blockcache.e.evictions").Value() == 0 {
		t.Error("no evictions recorded")
	}
	// The most recently inserted key must still be resident.
	hits := reg.Counter("blockcache.e.hits").Value()
	bc.Block(keys[len(keys)-1], func() *codec.Block {
		t.Error("most recent key evicted")
		return &codec.Block{NumPoints: 1, Data: payload}
	})
	if reg.Counter("blockcache.e.hits").Value() != hits+1 {
		t.Error("expected a hit on the most recent key")
	}
}

// TestOversizedValueNotCached checks a value larger than the whole budget
// passes through without wedging the tier.
func TestOversizedValueNotCached(t *testing.T) {
	tier := New("e", 100, metrics.NewRegistry())
	bc := BlockCacheOn(tier)
	big := make([]byte, 4096)
	b := bc.Block(codec.HashBytes([]byte("big")), func() *codec.Block {
		return &codec.Block{NumPoints: 1, Data: big}
	})
	if b == nil || tier.Len() != 0 {
		t.Fatalf("oversized value cached (len=%d) or lost", tier.Len())
	}
}

// TestSingleflight checks concurrent misses on one key run the compute
// exactly once and everyone gets the same value.
func TestSingleflight(t *testing.T) {
	tier := New("d", 1<<20, metrics.NewRegistry())
	cc := CellCacheOn(tier)
	key := codec.HashBytes([]byte("shared-cell"))
	var computes int32
	var mu sync.Mutex
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*codec.DecodedCell, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			dc, err := cc.Cell(key, func() (*codec.DecodedCell, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return &codec.DecodedCell{CellID: 7}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = dc
		}(i)
	}
	close(start)
	wg.Wait()
	if computes != 1 {
		t.Errorf("compute ran %d times, want 1", computes)
	}
	for i, dc := range results {
		if dc != results[0] {
			t.Errorf("waiter %d got a different value", i)
		}
	}
}

// TestErrorsNotCached checks a failed decode is returned to the caller and
// retried on the next request instead of being cached.
func TestErrorsNotCached(t *testing.T) {
	tier := New("d", 1<<20, metrics.NewRegistry())
	cc := CellCacheOn(tier)
	key := codec.HashBytes([]byte("bad-cell"))
	calls := 0
	fail := func() (*codec.DecodedCell, error) {
		calls++
		return nil, fmt.Errorf("corrupt")
	}
	if _, err := cc.Cell(key, fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, err := cc.Cell(key, fail); err == nil {
		t.Fatal("error cached as success")
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors never cached)", calls)
	}
	if tier.Len() != 0 {
		t.Error("failed compute left a cache entry")
	}
}

// panicThenJoin runs a compute on key that panics while a second request
// for the same key is on its way in: first starts the panicking call
// (whose compute must call enter, then panic) and second makes the other.
// It returns once both have, and fails the test if either is still stuck
// after the deadline — which, with the flight left in the map, the second
// always is, whether it arrived before the panic or after it.
func panicThenJoin(t *testing.T, first func(enter func()), second func()) {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	panicked, joined := make(chan any, 1), make(chan struct{})
	go func() {
		defer func() { panicked <- recover() }()
		first(func() {
			close(started)
			<-release
		})
	}()
	<-started
	go func() {
		defer close(joined)
		second()
	}()
	close(release)
	deadline := time.After(10 * time.Second)
	select {
	case v := <-panicked:
		if v == nil {
			t.Error("the panic did not reach the caller that ran the compute")
		}
	case <-deadline:
		t.Fatal("the panicking request never returned")
	}
	select {
	case <-joined:
	case <-deadline:
		t.Fatal("a request for the key of a panicked compute is blocked on its flight")
	}
}

// TestPanickingComputeFreesItsKey is the regression test for the poisoned
// key: a compute that panics used to leave its flight in the map with
// done never closed, so every later request for the same bytes hung.
func TestPanickingComputeFreesItsKey(t *testing.T) {
	tier := New("d", 1<<20, metrics.NewRegistry())
	cc := CellCacheOn(tier)
	key := codec.HashBytes([]byte("panicking-cell"))
	computes := 0
	compute := func() (*codec.DecodedCell, error) {
		computes++
		return &codec.DecodedCell{CellID: 7}, nil
	}
	var dc *codec.DecodedCell
	var err error
	panicThenJoin(t, func(enter func()) {
		cc.Cell(key, func() (*codec.DecodedCell, error) {
			enter()
			panic("decode blew up")
		})
	}, func() { dc, err = cc.Cell(key, compute) })
	// The second request either waited on the panicked flight, and is told
	// so, or came after the clean-up and computed for itself.
	if waited := err == errComputePanicked; !waited && (err != nil || dc == nil) || waited && computes != 0 {
		t.Fatalf("second request: cell %v, error %v, %d computes", dc, err, computes)
	}
	// A third computes (or hits the second's value) as if nothing happened.
	if dc, err = cc.Cell(key, compute); err != nil || dc == nil || computes != 1 {
		t.Fatalf("third request: cell %v, error %v, %d computes", dc, err, computes)
	}
	if tier.Len() != 1 {
		t.Errorf("tier holds %d entries, want the one good cell", tier.Len())
	}
}

// TestEncodeTierWaiterEncodesForItself: the encode tier's interface has no
// error to hand a waiter whose flight panicked, so the waiter encodes.
func TestEncodeTierWaiterEncodesForItself(t *testing.T) {
	tier := New("e", 1<<20, metrics.NewRegistry())
	bc := BlockCacheOn(tier)
	key := codec.HashBytes([]byte("panicking-block"))
	good := &codec.Block{CellID: 3, Data: []byte{1, 2, 3}}
	var got *codec.Block
	panicThenJoin(t, func(enter func()) {
		bc.Block(key, func() *codec.Block {
			enter()
			panic("encode blew up")
		})
	}, func() { got = bc.Block(key, func() *codec.Block { return good }) })
	if got != good {
		t.Fatalf("second request got %v, want its own encode", got)
	}
}

// TestConcurrentMixed hammers one tier from many goroutines over a small
// key space with a budget that forces constant eviction; run under -race
// this exercises every lock path.
func TestConcurrentMixed(t *testing.T) {
	tier := New("e", int64(8*(256+entryOverhead)), metrics.NewRegistry())
	bc := BlockCacheOn(tier)
	payload := make([]byte, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := codec.HashBytes([]byte{byte(i % 24)})
				b := bc.Block(k, func() *codec.Block {
					return &codec.Block{NumPoints: i, Data: payload}
				})
				if b == nil {
					t.Error("nil block")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tier.Used() > int64(8*(256+entryOverhead)) {
		t.Errorf("budget exceeded: %d", tier.Used())
	}
}

// TestGlobalBudgetKnob checks SetBudgetMB(0) disables the process tiers
// and a negative value restores the default.
func TestGlobalBudgetKnob(t *testing.T) {
	defer SetBudgetMB(-1)
	SetBudgetMB(0)
	if Blocks() != nil || Cells() != nil {
		t.Fatal("budget 0 should disable both tiers")
	}
	SetBudgetMB(16)
	if BudgetMB() != 16 {
		t.Fatalf("BudgetMB = %d, want 16", BudgetMB())
	}
	if Blocks() == nil || Cells() == nil {
		t.Fatal("nonzero budget should enable both tiers")
	}
	SetBudgetMB(-1)
	if BudgetMB() != DefaultBudgetMB {
		t.Fatalf("BudgetMB = %d, want default %d", BudgetMB(), DefaultBudgetMB)
	}
}
