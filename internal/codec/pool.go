package codec

import "sync"

// Scratch pools for the codec hot path. Per-cell encode/decode runs at
// frame rate across every cell of every frame, so the quantized-point
// slice, the octree code/count slices and the segment byte buffers are
// recycled instead of reallocated. Pools hold pointers to slices so Put
// never allocates a slice header.

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

// getBuf returns a zero-length byte slice with capacity ≥ n; the caller
// hands it back via putBuf (a Block's Data is never pooled — it is
// allocated at its exact size).
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
