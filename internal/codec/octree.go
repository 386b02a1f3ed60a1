package codec

import "math/bits"

// Octree occupancy coding — the position coder real point-cloud codecs
// (MPEG G-PCC, Draco) use: the quantized lattice inside a cell is
// recursively split into octants and, for each non-empty node, one byte
// records which children are occupied. The stream is depth-first, so
// leaves emerge in Morton order — the order the encoder sorts into — and
// co-located points collapse into one leaf (the block's final layer
// carries their counts).

// octreeEncode appends the DFS occupancy-byte stream for the sorted,
// deduplicated Morton codes. Codes must be sorted ascending, unique and
// below 1<<(3*qb); qb is the tree depth (bits per axis, at most 21).
//
// It is one forward pass. Consecutive codes share every tree node above
// their first differing 3-bit digit, so each code ORs its bit into that
// one still-open node and opens a fresh node at every level below it. A
// node's byte is reserved at the end of the buffer the moment it opens —
// after everything belonging to earlier subtrees, before anything of its
// own — which is exactly its DFS pre-order position; later children only
// OR into the reserved byte.
//
//vollint:hotpath
func octreeEncode(buf []byte, codes []uint64, qb uint) []byte {
	if len(codes) == 0 {
		return buf
	}
	// open[d] is the buffer index of the open node whose children are
	// told apart by digit d (code bits 3d..3d+2); the root is d = qb-1.
	var open [22]int
	prev := codes[0]
	for d := int(qb) - 1; d >= 0; d-- {
		open[d] = len(buf)
		buf = append(buf, 1<<(prev>>uint(3*d)&7))
	}
	for _, code := range codes[1:] {
		d := (bits.Len64(prev^code) - 1) / 3
		buf[open[d]] |= 1 << (code >> uint(3*d) & 7)
		for d--; d >= 0; d-- {
			open[d] = len(buf)
			buf = append(buf, 1<<(code>>uint(3*d)&7))
		}
		prev = code
	}
	return buf
}

func octreeDecodeNode(buf []byte, shift int, prefix uint64, out *[]uint64, max int) ([]byte, bool) {
	if shift < 0 {
		if len(*out) >= max {
			return nil, false
		}
		*out = append(*out, prefix)
		return buf, true
	}
	if len(buf) == 0 {
		return nil, false
	}
	occ := buf[0]
	buf = buf[1:]
	if occ == 0 {
		return nil, false // a visited node must have children
	}
	for child := 0; child < 8; child++ {
		if occ&(1<<uint(child)) == 0 {
			continue
		}
		var ok bool
		buf, ok = octreeDecodeNode(buf, shift-3, prefix|uint64(child)<<uint(shift), out, max)
		if !ok {
			return nil, false
		}
	}
	return buf, true
}

// octreeDecodeBounded decodes at most maxLeaves leaves; the leaf count
// may be smaller than the point count (duplicates collapse into one
// leaf). The leaves accumulate into scratch (grown as needed), so callers
// can recycle the backing array.
func octreeDecodeBounded(buf []byte, maxLeaves int, qb uint, scratch []uint64) (rest []byte, codes []uint64, ok bool) {
	codes = scratch[:0]
	rest, ok = octreeDecodeNode(buf, 3*int(qb)-3, 0, &codes, maxLeaves)
	if !ok {
		return nil, nil, false
	}
	return rest, codes, true
}
