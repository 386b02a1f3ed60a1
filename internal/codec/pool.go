package codec

import "sync"

// Scratch pools for the codec hot path. Per-cell encode/decode runs at
// frame rate across every cell of every frame, so the quantized-point
// slice, the octree code/count slices and the segment byte buffers are
// recycled instead of reallocated. Pools hold pointers to slices so Put
// never allocates a slice header.

var qpointPool = sync.Pool{New: func() any { return new([]qpoint) }}

// getQpoints returns a zero-length qpoint slice with capacity ≥ n.
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

// decodeScratch is the decode kernel's working set, pooled as one unit:
// node codes and the three unclamped colour planes, twice over so each
// enhancement layer expands one half into the other — 64 bytes per
// bounded node — plus the G plane of the final layer's duplicates, grown
// only by blocks that have any.
type decodeScratch struct {
	codes  [2][]uint64
	planes [2][3][]int64
	dupG   []int64
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// getDecodeScratch returns a scratch whose code and plane slices all have
// length m (contents undefined); the caller hands it back via
// putDecodeScratch.
func getDecodeScratch(m int) *decodeScratch {
	s := decodeScratchPool.Get().(*decodeScratch)
	if cap(s.codes[0]) < m {
		u, v := make([]uint64, 2*m), make([]int64, 6*m)
		for i := range s.codes {
			s.codes[i], u = u[:m:m], u[m:]
			for ch := range s.planes[i] {
				s.planes[i][ch], v = v[:m:m], v[m:]
			}
		}
	}
	for i := range s.codes {
		s.codes[i] = s.codes[i][:m]
		for ch := range s.planes[i] {
			s.planes[i][ch] = s.planes[i][ch][:m]
		}
	}
	return s
}

func putDecodeScratch(s *decodeScratch) { decodeScratchPool.Put(s) }

// dupPlane returns the duplicates' G plane at length n (contents
// undefined).
func (s *decodeScratch) dupPlane(n int) []int64 {
	if cap(s.dupG) < n {
		s.dupG = make([]int64, n)
	}
	return s.dupG[:n]
}

// bufPool holds byte buffers; bufHeaders recycles the emptied boxes they
// travel in, so neither getBuf nor putBuf allocates.
var (
	bufPool    = sync.Pool{New: func() any { return new([]byte) }}
	bufHeaders = sync.Pool{New: func() any { return new([]byte) }}
)

// getBuf returns a zero-length byte slice with capacity ≥ n; the caller
// hands it back via putBuf (a Block's Data is never pooled — it is
// allocated at its exact size).
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
