package codec

// Binary range coder (LZMA-style, carry-handling) with adaptive 12-bit
// probabilities — the entropy-coding stage that makes octree occupancy
// competitive at every density, as in MPEG G-PCC. Each occupancy bit is
// coded under a context chosen from (tree depth, bit position, bits
// already set in the byte), so the coder learns the structural skew of
// surfaces (mostly-empty children near the root, dense runs at the
// leaves).

import (
	"encoding/binary"
	"math/bits"
)

// probBits is the probability resolution; probInit is p(0) = 0.5.
const (
	probBits  = 12
	probInit  = 1 << (probBits - 1)
	probMoves = 5 // adaptation rate: shift per update
	rcTopBits = 24
)

// prob is an adaptive probability state.
type prob uint16

// rcEncoder is the range encoder.
type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

func newRCEncoder() *rcEncoder {
	return &rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1}
}

func (e *rcEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, temp+byte(e.low>>32))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

// encodeBit codes one bit under the adaptive probability p.
func (e *rcEncoder) encodeBit(p *prob, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> probMoves
	}
	for e.rng < 1<<rcTopBits {
		e.rng <<= 8
		e.shiftLow()
	}
}

// finish flushes the encoder and returns the byte stream.
func (e *rcEncoder) finish() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// rcDecoder mirrors rcEncoder.
type rcDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
	bad  bool
}

func newRCDecoder(in []byte) *rcDecoder {
	d := &rcDecoder{rng: 0xFFFFFFFF, in: in}
	d.nextByte() // first emitted byte is always 0
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return d
}

func (d *rcDecoder) nextByte() byte {
	if d.pos >= len(d.in) {
		d.bad = true
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// decodeBit decodes one bit under the adaptive probability p.
func (d *rcDecoder) decodeBit(p *prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> probMoves
		bit = 1
	}
	for d.rng < 1<<rcTopBits {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return bit
}

// occupancy contexts: depth bucket (8) × bit position (8) × count of bits
// already set in the byte, capped (8).
const occCtxCount = 8 * 8 * 8

type occModel [occCtxCount]prob

func occCtx(depth, bitIdx, setSoFar int) int {
	if depth > 7 {
		depth = 7
	}
	if setSoFar > 7 {
		setSoFar = 7
	}
	return (depth*8+bitIdx)*8 + setSoFar
}

// octreeEncodeAC appends the range-coded occupancy stream for the sorted
// unique codes, prefixed by a uvarint byte length so the decoder knows
// where the raw tail (dup counts) begins. The occupancy bytes come from
// octreeEncode; since that stream is DFS pre-order, a counter of children
// still to visit per level recovers each byte's depth for its context.
func octreeEncodeAC(buf []byte, codes []uint64, qb uint) []byte {
	s := getAC()
	defer putAC(s)
	occ := octreeEncode(getBuf(2*len(codes)+1), codes, qb)
	if len(codes) == 0 {
		// An empty cell still codes its root, all children absent.
		occ = append(occ, 0)
	}
	var left [22]int // left[d]: children of the open depth-d node not yet visited
	depth, last := 0, int(qb)-1
	for _, o := range occ {
		set := 0
		for child := 0; child < 8; child++ {
			bit := int(o>>uint(child)) & 1
			s.enc.encodeBit(&s.m[occCtx(depth, child, set)], bit)
			set += bit
		}
		if depth < last {
			left[depth] = bits.OnesCount8(o) - 1
			depth++ // into the first child
			continue
		}
		for depth > 0 && left[depth-1] == 0 {
			depth-- // subtree complete
		}
		if depth > 0 {
			left[depth-1]-- // on to the next sibling
		}
	}
	putBuf(occ)
	stream := s.enc.finish()
	buf = binary.AppendUvarint(buf, uint64(len(stream)))
	return append(buf, stream...)
}

// octreeDecodeAC reads the range-coded occupancy stream (length-prefixed)
// back into sorted Morton codes.
func octreeDecodeAC(buf []byte, maxLeaves int, qb uint, scratch []uint64) (rest []byte, codes []uint64, ok bool) {
	// uvarint length prefix.
	var n uint64
	var shift uint
	i := 0
	for {
		if i >= len(buf) || shift > 63 {
			return nil, nil, false
		}
		b := buf[i]
		i++
		n |= uint64(b&0x7F) << shift
		if b < 0x80 {
			break
		}
		shift += 7
	}
	if uint64(len(buf)-i) < n {
		return nil, nil, false
	}
	stream := buf[i : i+int(n)]
	rest = buf[i+int(n):]
	s := getAC()
	defer putAC(s)
	s.dec = rcDecoder{rng: 0xFFFFFFFF, in: stream}
	s.dec.nextByte() // first emitted byte is always 0
	for j := 0; j < 4; j++ {
		s.dec.code = s.dec.code<<8 | uint32(s.dec.nextByte())
	}
	codes = scratch[:0]
	if !octreeDecodeNodeAC(&s.dec, &s.m, 3*int(qb)-3, 0, 0, &codes, maxLeaves) || s.dec.bad {
		return nil, nil, false
	}
	return rest, codes, true
}

func octreeDecodeNodeAC(dec *rcDecoder, m *occModel, shift, depth int, prefix uint64, out *[]uint64, max int) bool {
	if shift < 0 {
		if len(*out) >= max {
			return false
		}
		*out = append(*out, prefix)
		return true
	}
	var occ [8]bool
	set := 0
	any := false
	for child := 0; child < 8; child++ {
		bit := dec.decodeBit(&m[occCtx(depth, child, set)])
		if bit == 1 {
			occ[child] = true
			set++
			any = true
		}
	}
	if !any {
		return false // a visited node must have children
	}
	for child := 0; child < 8; child++ {
		if !occ[child] {
			continue
		}
		if !octreeDecodeNodeAC(dec, m, shift-3, depth+1, prefix|uint64(child)<<uint(shift), out, max) {
			return false
		}
	}
	return true
}
