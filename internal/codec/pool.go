package codec

import "sync"

// Scratch pools for the codec hot path. Per-cell encode/decode runs at
// frame rate across every cell of every frame (and, in Auto mode, three
// coder variants per cell), so the quantized-point slice, the octree
// code/count slices and the output byte buffers are recycled instead of
// reallocated. Pools hold pointers to slices so Put never allocates a
// slice header.

var qpointPool = sync.Pool{New: func() any { return new([]qpoint) }}

// getQpoints returns a zero-length qpoint slice with capacity ≥ n.
//
//vollint:hotpath
func getQpoints(n int) *[]qpoint {
	p := qpointPool.Get().(*[]qpoint)
	if cap(*p) < n {
		*p = make([]qpoint, 0, n)
	} else {
		*p = (*p)[:0]
	}
	return p
}

func putQpoints(p *[]qpoint) { qpointPool.Put(p) }

var u64Pool = sync.Pool{New: func() any { return new([]uint64) }}

// getU64 returns a zero-length uint64 slice with capacity ≥ n.
//
//vollint:hotpath
func getU64(n int) *[]uint64 {
	p := u64Pool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, 0, n)
	} else {
		*p = (*p)[:0]
	}
	return p
}

func putU64(p *[]uint64) { u64Pool.Put(p) }

var i64Pool = sync.Pool{New: func() any { return new([]int64) }}

// getI64 returns an int64 slice of length n (contents undefined).
//
//vollint:hotpath
func getI64(n int) *[]int64 {
	p := i64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putI64(p *[]int64) { i64Pool.Put(p) }

// bufPool holds byte buffers; bufHeaders recycles the emptied boxes they
// travel in, so neither getBuf nor putBuf allocates.
var (
	bufPool    = sync.Pool{New: func() any { return new([]byte) }}
	bufHeaders = sync.Pool{New: func() any { return new([]byte) }}
)

// getBuf returns a zero-length byte slice with capacity ≥ n. A buffer
// that ends up as a Block's Data is simply never returned; buffers
// discarded (scratch, the losing Auto variants) go back via putBuf.
//
//vollint:hotpath
func getBuf(n int) []byte {
	p := bufPool.Get().(*[]byte)
	b := *p
	*p = nil
	bufHeaders.Put(p)
	if cap(b) < n {
		return make([]byte, 0, n)
	}
	return b[:0]
}

func putBuf(b []byte) {
	p := bufHeaders.Get().(*[]byte)
	*p = b[:0]
	bufPool.Put(p)
}

// acScratch bundles the range coder's per-cell state — encoder (with its
// growable output buffer), decoder and context model — so an AC encode or
// decode costs zero allocations once the pool is warm.
type acScratch struct {
	enc rcEncoder
	dec rcDecoder
	m   occModel
}

var acPool = sync.Pool{New: func() any { return new(acScratch) }}

// getAC returns scratch with the model reset and the encoder primed
// (output truncated, state cleared).
//
//vollint:hotpath
func getAC() *acScratch {
	s := acPool.Get().(*acScratch)
	s.enc = rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: s.enc.out[:0]}
	for i := range s.m {
		s.m[i] = probInit
	}
	return s
}

func putAC(s *acScratch) { acPool.Put(s) }
