package cell

import "math/bits"

// Set is a fixed-capacity bitset over cell IDs. It is the visibility-map
// representation: Set bit i means cell i is visible/requested. Operations
// are word-parallel, which keeps IoU computation over hundreds of frames ×
// 32 users cheap.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// NewSet returns an empty set with capacity for n cell IDs.
func NewSet(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Add inserts id; out-of-range IDs are ignored.
func (s *Set) Add(id ID) {
	i := int(id)
	if i < 0 || i >= s.n {
		return
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Contains reports membership of id.
func (s *Set) Contains(id ID) bool {
	i := int(id)
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// ForEach calls fn for every member in ascending order.
func (s *Set) ForEach(fn func(ID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(ID(wi*64 + b))
			w &= w - 1
		}
	}
}

// IDs returns the members in ascending order.
func (s *Set) IDs() []ID {
	out := make([]ID, 0, s.Count())
	s.ForEach(func(id ID) { out = append(out, id) })
	return out
}

// IntersectCount returns |s ∩ t| without allocating.
func (s *Set) IntersectCount(t *Set) int {
	n := min(len(s.words), len(t.words))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// UnionCount returns |s ∪ t| without allocating.
func (s *Set) UnionCount(t *Set) int {
	c := 0
	n := max(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		c += bits.OnesCount64(a | b)
	}
	return c
}

// Intersect returns a new set s ∩ t.
func (s *Set) Intersect(t *Set) *Set {
	out := NewSet(max(s.n, t.n))
	n := min(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// Union returns a new set s ∪ t.
func (s *Set) Union(t *Set) *Set {
	out := NewSet(max(s.n, t.n))
	for i := range out.words {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		out.words[i] = a | b
	}
	return out
}

// IoU returns the intersection-over-union of two visibility maps, the
// paper's viewport-similarity metric. Two empty maps have IoU 1 (they
// trivially watch "the same nothing"), matching the convention that a
// frame with no visible content costs no bandwidth either way.
func IoU(a, b *Set) float64 {
	u := a.UnionCount(b)
	if u == 0 {
		return 1
	}
	return float64(a.IntersectCount(b)) / float64(u)
}

// GroupIoU generalizes IoU to k users: |∩ maps| / |∪ maps|. The paper's
// Fig. 2b HM(3) curve is this metric for user triples.
func GroupIoU(maps []*Set) float64 {
	if len(maps) == 0 {
		return 1
	}
	inter := maps[0].Clone()
	union := maps[0].Clone()
	for _, m := range maps[1:] {
		inter = inter.Intersect(m)
		union = union.Union(m)
	}
	u := union.Count()
	if u == 0 {
		return 1
	}
	return float64(inter.Count()) / float64(u)
}
