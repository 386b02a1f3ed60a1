package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzReadMessage feeds ReadMessage arbitrary bytes. It must return an
// error or a message — never panic — and hold four rules:
//
//   - what it allocates is bounded by the length prefix it checked
//     (at most MaxMessageSize) and by the body bytes that arrived (at
//     most readChunk before any do), never by a count inside the body;
//   - it consumes the prefix and the body it names, nothing more;
//   - a message that parses re-encodes through AppendMessage and parses
//     again to an equal value. Equal is "encodes to the same bytes":
//     the encoding writes every field, and a NaN coordinate, which a
//     hostile pose may carry, is not == itself;
//   - the aliasing rule the client's decode pool leans on: a parsed
//     CellData.Payload belongs to that one message (and is capped, so an
//     append copies), so writing through it changes neither the input
//     nor what a second parse of the same input returns.
//
// The committed corpus (testdata/fuzz/FuzzReadMessage) holds a populated
// message of every type and the truncated, oversized and zero-length
// prefixes; the zero value of every type is added here, so a type added
// to newMessage is seeded without anyone remembering to.
func FuzzReadMessage(f *testing.F) {
	for t := TypeHello; ; t++ {
		m, err := newMessage(t)
		if err != nil {
			break
		}
		framed, err := AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(framed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		claimed, sent := uint64(0), uint64(0)
		if len(data) >= 4 {
			claimed, sent = uint64(binary.LittleEndian.Uint32(data)), uint64(len(data)-4)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(data)
		m, err := ReadMessage(r)
		runtime.ReadMemStats(&after)
		// A body that never arrives whole costs the up-front buffer (at
		// most readChunk) and, past that, at most four times what did
		// arrive: the buffer doubles only as bytes come in. A whole body
		// costs the prefix's size (twice it past readChunk, counting the
		// doublings) and the one parsed collection, SegmentRequest.Cells,
		// 16 bytes for every 5 of the body. The slack covers the message
		// struct, a name, and whatever the fuzz worker's own goroutines
		// allocated meanwhile.
		budget := uint64(1 << 16)
		switch {
		case claimed > MaxMessageSize:
		case sent < claimed:
			budget += min(claimed, readChunk) + 4*sent
		case claimed > readChunk:
			budget += 6 * claimed
		default:
			budget += 5 * claimed
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("a prefix of %d allocated %d bytes (budget %d)", claimed, got, budget)
		}
		if err != nil {
			return
		}
		if consumed := len(data) - r.Len(); consumed != 4+int(claimed) {
			t.Fatalf("consumed %d bytes of a message framed as 4+%d", consumed, claimed)
		}

		canon, err := AppendMessage(nil, m)
		if errors.Is(err, ErrTooLarge) {
			return // a legacy form near the cap grows past it with its trailing fields
		}
		if err != nil {
			t.Fatal(err)
		}
		reparse := func(src []byte, what string) {
			m2, err := ReadMessage(bytes.NewReader(src))
			if err != nil {
				t.Fatalf("%s does not parse: %v", what, err)
			}
			again, err := AppendMessage(nil, m2)
			if err != nil || !bytes.Equal(again, canon) {
				t.Fatalf("%s parses to a different %v:\n%x\n%x (%v)", what, m.Type(), again, canon, err)
			}
		}
		reparse(canon, "the re-encoded message")

		if cd, ok := m.(*CellData); ok {
			for i := range cd.Payload {
				cd.Payload[i] ^= 0xff
			}
			if cap(cd.Payload) != len(cd.Payload) {
				t.Fatalf("payload has %d spare bytes of the message buffer: an append would write the fields behind it", cap(cd.Payload)-len(cd.Payload))
			}
			if !bytes.Equal(data, input) {
				t.Fatal("writing through a parsed payload changed the input bytes")
			}
			reparse(data, "the input, after a parsed payload of it was overwritten,")
		}
	})
}
