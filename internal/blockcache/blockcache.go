// Package blockcache is the content-addressed cell cache exploited by the
// compute layer: the paper's observation that concurrent users share >50%
// of visible cells (and that most cells are temporally static between
// frames) means the same cell is encoded and decoded over and over. The
// cache has two tiers keyed by 128-bit content hashes (codec.CacheKey):
//
//   - the encode tier memoizes encoded blocks by cell content, so
//     vivo.BuildStore reuses the previous frame's block for temporally
//     static cells instead of re-running the coder. Keys address
//     (content, layer count): the encoder folds its layer count into the
//     hash, so one entry serves every density rung as a prefix — a base-layer hit never re-encodes for an enhancement
//     request, and a different layering is a different entry;
//   - the decode tier memoizes decoded cells by block bytes, so N users
//     requesting the same overlapping cell decode it exactly once.
//
// Both tiers are size-bounded LRUs under one configurable byte budget
// (VOLCAST_CACHE_MB, volsim/volserve -cache, SetBudgetMB; 0 disables) and
// deduplicate concurrent computes of the same key singleflight-style.
// Hit/miss/eviction/bytes-saved counters land in the process metrics
// registry under blockcache.encode.* and blockcache.decode.*.
package blockcache

import (
	"container/list"
	"errors"
	"os"
	"strconv"
	"sync"
	"time"

	"volcast/internal/codec"
	"volcast/internal/metrics"
	"volcast/internal/obs"
)

// Cache is one content-addressed LRU tier: values are kept while their
// summed sizes fit the byte budget, evicting least-recently-used first.
// The zero value is not usable; construct with New.
type Cache struct {
	name string
	reg  *metrics.Registry

	mu       sync.Mutex
	budget   int64
	used     int64
	ll       *list.List // front = most recently used
	items    map[codec.CacheKey]*list.Element
	inflight map[codec.CacheKey]*flight
}

type entry struct {
	key  codec.CacheKey
	size int64
	val  any
}

// flight tracks one in-progress compute so concurrent requests for the
// same key wait for it instead of duplicating the work.
type flight struct {
	done chan struct{}
	val  any
	size int64
	err  error
}

// New returns a tier named name (the metrics label) holding at most
// budget bytes. A nil registry records into the process default.
func New(name string, budget int64, reg *metrics.Registry) *Cache {
	if reg == nil {
		reg = metrics.Default()
	}
	return &Cache{
		name:     name,
		reg:      reg,
		budget:   budget,
		ll:       list.New(),
		items:    map[codec.CacheKey]*list.Element{},
		inflight: map[codec.CacheKey]*flight{},
	}
}

// counter resolves a tier counter lazily so a registry Reset (tests,
// -stats runs) never detaches the cache from its instruments.
func (c *Cache) counter(kind string) *metrics.Counter {
	return c.reg.Counter("blockcache." + c.name + "." + kind)
}

// Used returns the bytes currently held.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached values.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// SetBudget changes the byte budget, evicting down to the new limit.
func (c *Cache) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictLocked()
}

// sessionCounters split a shared tier's hit/miss traffic by session, so a
// hub-wide cache stays readable on /metrics with many sessions. The
// adapter resolves them once; the tier-global counters keep aggregating.
type sessionCounters struct {
	hits, misses *metrics.Counter
}

// SessionCounters returns the per-session split counters for label,
// registered as blockcache.<tier>.session.<label>.{hits,misses}.
func (c *Cache) SessionCounters(label string) *sessionCounters {
	prefix := c.sessionPrefix(label)
	return &sessionCounters{
		hits:   c.reg.Counter(prefix + "hits"),
		misses: c.reg.Counter(prefix + "misses"),
	}
}

// SessionStats reads label's hit/miss counts back off this tier's
// registry — the /sessions table computes per-session cache hit rates
// from it. A nil cache reads zero.
func (c *Cache) SessionStats(label string) (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	prefix := c.sessionPrefix(label)
	return c.reg.Counter(prefix + "hits").Value(), c.reg.Counter(prefix + "misses").Value()
}

// ForgetSession drops label's split counters from this tier's registry:
// a session is finite-lived (the hub reaps idle scenes by the thousand)
// and its pair must not outlive it. The tier-global counters keep what
// the session added to them. A nil cache has nothing to forget.
func (c *Cache) ForgetSession(label string) {
	if c != nil {
		c.reg.Forget(c.sessionPrefix(label))
	}
}

func (c *Cache) sessionPrefix(label string) string {
	return "blockcache." + c.name + ".session." + label + "."
}

// errComputePanicked is what the waiters of a flight get when its compute
// panicked; the panic itself goes on to the caller that ran compute.
var errComputePanicked = errors.New("blockcache: the compute this request waited on panicked")

// do returns the cached value for key, joins an in-flight compute for it,
// or runs compute and caches a successful result. compute returns the
// value, its accounted size in bytes, and an error (errors are returned
// to every waiter and never cached). A non-nil sc additionally attributes
// the hit or miss to one session's counters.
func (c *Cache) do(key codec.CacheKey, sc *sessionCounters, compute func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		c.mu.Unlock()
		c.counter("hits").Inc()
		c.counter("bytes_saved").Add(e.size)
		if sc != nil {
			sc.hits.Inc()
		}
		return e.val, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		c.counter("hits").Inc()
		c.counter("bytes_saved").Add(fl.size)
		if sc != nil {
			sc.hits.Inc()
		}
		return fl.val, nil
	}
	// A flight counts as panicked until its compute has returned: whatever
	// way this call leaves compute, the deferred clean-up takes the flight
	// out of the map and wakes its waiters. par turns a worker's panic into
	// an error and the process lives on, so a flight left behind would block
	// every later request for the same bytes on done, forever.
	fl := &flight{done: make(chan struct{}), err: errComputePanicked}
	c.inflight[key] = fl
	c.mu.Unlock()
	c.counter("misses").Inc()
	if sc != nil {
		sc.misses.Inc()
	}
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.addLocked(key, fl.val, fl.size)
		}
		c.mu.Unlock()
		close(fl.done)
	}()

	// A miss runs the real encode/decode work: attribute it to the cache
	// stage on the process tracer (hits are ~ns and only counted).
	if t := obs.Default(); t != nil {
		start := time.Now()
		fl.val, fl.size, fl.err = compute()
		t.Record(-1, obs.PipelineUser, obs.StageCache, start, time.Since(start))
	} else {
		fl.val, fl.size, fl.err = compute()
	}
	return fl.val, fl.err
}

// addLocked inserts a value (unless it alone exceeds the budget) and
// evicts from the cold end until the budget holds again.
func (c *Cache) addLocked(key codec.CacheKey, val any, size int64) {
	if size > c.budget {
		return
	}
	if el, ok := c.items[key]; ok { // lost a race with another insert
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, size: size, val: val})
	c.used += size
	c.evictLocked()
}

func (c *Cache) evictLocked() {
	for c.used > c.budget {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.used -= e.size
		c.counter("evictions").Inc()
	}
}

// Accounted per-value overhead beyond the payload bytes: map entry, list
// element, entry struct, block/cell headers. An estimate — the budget
// bounds order-of-magnitude memory, not exact RSS.
const entryOverhead = 160

// decodedPointSize is the in-memory size of one pointcloud.Point
// (three float64 coordinates plus RGB, padded).
const decodedPointSize = 32

// blockTier adapts a Cache to codec.BlockCache; a non-nil sc splits the
// shared tier's hit/miss counters by session.
type blockTier struct {
	c  *Cache
	sc *sessionCounters
}

// Block implements codec.BlockCache.
func (t blockTier) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	v, err := t.c.do(key, t.sc, func() (any, int64, error) {
		b := encode()
		return b, int64(len(b.Data)) + entryOverhead, nil
	})
	if err != nil {
		// The encode this call waited on panicked in its own caller, and
		// there is no error to return here: encode for this one.
		return encode()
	}
	return v.(*codec.Block)
}

// cellTier adapts a Cache to codec.CellCache.
type cellTier struct {
	c  *Cache
	sc *sessionCounters
}

// Cell implements codec.CellCache.
func (t cellTier) Cell(key codec.CacheKey, decode func() (*codec.DecodedCell, error)) (*codec.DecodedCell, error) {
	v, err := t.c.do(key, t.sc, func() (any, int64, error) {
		dc, err := decode()
		if err != nil {
			return nil, 0, err
		}
		return dc, int64(len(dc.Points))*decodedPointSize + entryOverhead, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*codec.DecodedCell), nil
}

// BlockCacheOn adapts an explicit tier to codec.BlockCache (tests and
// custom pipelines; the process-wide tier is Blocks).
func BlockCacheOn(c *Cache) codec.BlockCache { return blockTier{c: c} }

// CellCacheOn adapts an explicit tier to codec.CellCache.
func CellCacheOn(c *Cache) codec.CellCache { return cellTier{c: c} }

// SessionBlocks adapts a shared encode tier to codec.BlockCache with the
// session's label on its hit/miss counters — the cross-session sharing
// contract: every session's encoder points at the same cache instance, so
// overlapping content across scenes is encoded once, while the labeled
// counters keep the sharing auditable per session. A nil cache returns
// nil (caching disabled).
func SessionBlocks(c *Cache, label string) codec.BlockCache {
	if c == nil {
		return nil
	}
	return blockTier{c: c, sc: c.SessionCounters(label)}
}

// SessionCells is SessionBlocks for the decode tier.
func SessionCells(c *Cache, label string) codec.CellCache {
	if c == nil {
		return nil
	}
	return cellTier{c: c, sc: c.SessionCounters(label)}
}

// DefaultBudgetMB is the combined byte budget (MB, split evenly between
// the encode and decode tiers) used when VOLCAST_CACHE_MB is unset.
const DefaultBudgetMB = 64

// Process-wide tiers, built lazily at first use from the configured
// budget (mirrors par's worker-width plumbing).
var (
	gMu       sync.Mutex
	gBudgetMB = -1 // -1 = not yet resolved from the environment
	gBlocks   *Cache
	gCells    *Cache
)

// envBudgetMB resolves the initial budget: VOLCAST_CACHE_MB when it
// parses as a non-negative integer, else DefaultBudgetMB.
func envBudgetMB() int {
	if s := os.Getenv("VOLCAST_CACHE_MB"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			return n
		}
	}
	return DefaultBudgetMB
}

// BudgetMB returns the current combined budget in MB.
func BudgetMB() int {
	gMu.Lock()
	defer gMu.Unlock()
	return budgetLocked()
}

func budgetLocked() int {
	if gBudgetMB < 0 {
		gBudgetMB = envBudgetMB()
	}
	return gBudgetMB
}

// SetBudgetMB sets the combined budget in MB; 0 disables caching and
// mb < 0 restores the environment default. Existing tiers shrink (or
// grow) in place, so the knob works before or after stores are built.
func SetBudgetMB(mb int) {
	gMu.Lock()
	defer gMu.Unlock()
	if mb < 0 {
		gBudgetMB = envBudgetMB()
	} else {
		gBudgetMB = mb
	}
	if gBlocks != nil {
		gBlocks.SetBudget(tierBudget(gBudgetMB))
	}
	if gCells != nil {
		gCells.SetBudget(tierBudget(gBudgetMB))
	}
}

// tierBudget splits the combined MB budget evenly between the two tiers.
func tierBudget(mb int) int64 { return int64(mb) << 20 / 2 }

// EncodeTier returns the process-wide shared encode tier instance, or nil
// when caching is disabled (budget 0). The hub injects per-session labeled
// views of this one instance (SessionBlocks) into every session's encoder,
// so overlapping content across scenes is encoded once under the single
// SetBudgetMB budget.
func EncodeTier() *Cache {
	gMu.Lock()
	defer gMu.Unlock()
	if budgetLocked() == 0 {
		return nil
	}
	if gBlocks == nil {
		gBlocks = New("encode", tierBudget(gBudgetMB), nil)
	}
	return gBlocks
}

// Blocks returns the process-wide encode tier as a codec.BlockCache, or
// nil when caching is disabled (budget 0).
func Blocks() codec.BlockCache {
	gMu.Lock()
	defer gMu.Unlock()
	if budgetLocked() == 0 {
		return nil
	}
	if gBlocks == nil {
		gBlocks = New("encode", tierBudget(gBudgetMB), nil)
	}
	return blockTier{c: gBlocks}
}

// Cells returns the process-wide decode tier as a codec.CellCache, or
// nil when caching is disabled (budget 0).
func Cells() codec.CellCache {
	gMu.Lock()
	defer gMu.Unlock()
	if budgetLocked() == 0 {
		return nil
	}
	if gCells == nil {
		gCells = New("decode", tierBudget(gBudgetMB), nil)
	}
	return cellTier{c: gCells}
}
