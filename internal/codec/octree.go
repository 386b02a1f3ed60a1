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

// occAt returns the occupancy symbol at buf[pos], or zero — which no
// visited node may carry — once the stream has run out. It is the walk's
// only read of the stream: a format that codes the symbol differently
// changes this function and nothing else in the decode kernel.
func occAt(buf []byte, pos int) uint8 {
	if pos < len(buf) {
		return buf[pos]
	}
	return 0
}

// octreeWalk decodes the DFS occupancy stream of a tree `depth` levels
// deep (1..21) into out, the leaves' Morton codes in ascending order, and
// returns their number and the bytes consumed. It fails when the stream
// ends early, a visited node has no child, or the tree holds more than
// len(out) leaves.
//
// It is the recursion unrolled onto a stack of (code prefix, children
// not yet visited), one entry per level above the last. A node's children
// are taken lowest digit first and a child's byte is read the moment it
// is entered, so bytes are consumed and leaves emitted in exactly the
// recursion's pre-order. A last-level node is never pushed: its children
// are leaves and read nothing, so all of them are emitted at once, and
// the leaf bound checked once against their popcount rejects exactly the
// trees that a check before each leaf does.
//
//vollint:hotpath
func octreeWalk(buf []byte, depth int, out []uint64) (n, used int, ok bool) {
	var stack [22]struct {
		prefix uint64
		rest   uint8
	}
	if depth < 1 || depth >= len(stack) {
		return 0, 0, false
	}
	last := depth - 1
	lv, prefix, pos := 0, uint64(0), 0
	for {
		// Enter the node at level lv whose code so far is prefix.
		occ := occAt(buf, pos)
		pos++
		if occ == 0 {
			return 0, 0, false
		}
		if lv < last {
			stack[lv].prefix, stack[lv].rest = prefix, occ
		} else {
			if n+bits.OnesCount8(occ) > len(out) {
				return 0, 0, false
			}
			for base := prefix << 3; occ != 0; occ &= occ - 1 {
				out[n] = base | uint64(bits.TrailingZeros8(occ))
				n++
			}
			// Back up to the nearest ancestor with a child left.
			for lv--; lv >= 0 && stack[lv].rest == 0; lv-- {
			}
			if lv < 0 {
				return n, pos, true
			}
		}
		f := &stack[lv]
		prefix = f.prefix<<3 | uint64(bits.TrailingZeros8(f.rest))
		f.rest &= f.rest - 1
		lv++
	}
}

// octreeDecodeBounded decodes at most maxLeaves leaves; the leaf count
// may be smaller than the point count (duplicates collapse into one
// leaf). The leaves are written into scratch (replaced when it is too
// small), so callers can recycle the backing array.
func octreeDecodeBounded(buf []byte, maxLeaves int, qb uint, scratch []uint64) (rest []byte, codes []uint64, ok bool) {
	if cap(scratch) < maxLeaves {
		scratch = make([]uint64, maxLeaves)
	}
	n, used, ok := octreeWalk(buf, int(qb), scratch[:maxLeaves])
	if !ok {
		return nil, nil, false
	}
	return buf[used:], scratch[:n], true
}
