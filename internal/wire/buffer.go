package wire

import (
	"sync"
	"sync/atomic"
)

// maxPooledBuffer bounds the backing arrays the pool retains. A buffer
// that grew past it (a full-density cell burst) is dropped on its final
// Release instead of pinning megabytes in the pool forever.
const maxPooledBuffer = 1 << 20

// Buffer is a pooled, reference-counted framing buffer holding one (or
// more) wire-framed messages, the allocation-free framing of the send
// path: NewBuffer draws the backing array from a sync.Pool, the fan-out
// tree retains one reference per reader, and the last Release returns
// the array to the pool.
//
// Ownership rules (leakcheck.Check holds the count: every buffer a
// leakcheck'd test acquires is released by the time it returns, and an
// over-release panics):
//
//   - NewBuffer returns the buffer with a reference count of 1, owned by
//     the caller.
//   - Handing the buffer to another goroutine (enqueueing it to a writer)
//     transfers exactly one reference: the receiver releases it, the
//     sender must not. A sender sharing one buffer with N writers calls
//     Retain(N-1) first (or Retain(1) per extra enqueue).
//   - Bytes must not be read after the holder's reference is released,
//     and the contents are immutable from the moment the buffer is
//     shared — writers only ever read it.
//
// The zero Buffer is not valid; construct with NewBuffer.
type Buffer struct {
	data []byte
	refs atomic.Int32
}

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// live counts buffers between NewBuffer and their final Release.
var live atomic.Int64

// LiveBuffers returns how many buffers are held: made by NewBuffer and
// not yet finally released. leakcheck compares it against a baseline.
func LiveBuffers() int64 { return live.Load() }

// NewBuffer frames m into a pooled buffer and returns it with a
// reference count of 1.
//
//vollint:hotpath
func NewBuffer(m Message) (*Buffer, error) {
	b := bufferPool.Get().(*Buffer)
	data, err := AppendMessage(b.data[:0], m)
	if err != nil {
		bufferPool.Put(b)
		return nil, err
	}
	b.data = data
	b.refs.Store(1)
	live.Add(1)
	return b, nil
}

// Bytes returns the framed message bytes. The slice is valid until the
// holder releases its reference and must never be mutated.
//
//vollint:hotpath
func (b *Buffer) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.data
}

// Len returns the framed length in bytes.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.data)
}

// Retain adds n references: the holder is about to hand the buffer to n
// more readers, each of which must Release it.
//
//vollint:hotpath
func (b *Buffer) Retain(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.refs.Add(int32(n))
}

// Release drops one reference. The final release resets the buffer and
// returns it to the pool, after which the backing array may be reused by
// an unrelated message — holding Bytes past Release is a use-after-free
// class bug. Releasing more times than retained panics: a silent
// double-release would corrupt a buffer some other writer still owns.
//
//vollint:hotpath
func (b *Buffer) Release() {
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n == 0:
		live.Add(-1)
		if cap(b.data) <= maxPooledBuffer {
			b.data = b.data[:0]
			bufferPool.Put(b)
		}
	case n < 0:
		panic("wire: Buffer released more times than retained")
	}
}
