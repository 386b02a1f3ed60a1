package wire

import (
	"encoding/binary"
	"io"
)

// readBufSize is a Reader's buffer. A message whose body fits (a pose, a
// marker, a cell of up to 32 KB) is parsed where it lies; a larger one
// is read into a body of its own, as ReadMessage reads it. The size
// was measured, not tuned: 32 KB was the fastest of 4, 16 and 32 KB on
// push_fanout, while 256 KB reads made a faultnet-paced link bursty
// enough to move TestCappedClientMovesDown's first downgrade past its
// third pass (DESIGN.md §17).
const readBufSize = 32 << 10

// Reader frames the messages of one connection through one buffer,
// created once per connection: a burst of small messages costs one read
// syscall per buffer fill instead of two per message, and a message in
// the buffer is parsed in place instead of into a fresh body.
//
// The price is ownership. A CellData.Payload that Read returns aliases
// the Reader's buffer and is valid only until the next Read, unless
// Owned says the message got a body of its own; a caller that keeps it,
// or hands it to another goroutine, copies it first. No other field
// aliases: Hello.Name is a string copy and SegmentRequest's cells are
// parsed into a slice of their own.
type Reader struct {
	r   io.Reader
	buf []byte
	// buf[start:end] has been read from r and not yet consumed.
	start, end int
	// owned: the last message read got a body of its own (Owned).
	owned bool
}

// NewReader returns a Reader framing r.
func NewReader(r io.Reader) *Reader { return newReaderSize(r, readBufSize) }

// newReaderSize is NewReader with a buffer of size bytes (at least 4),
// so the tests can reach both paths with small inputs.
func newReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: r, buf: make([]byte, size)}
}

// Read reads and parses the next message. It returns exactly what
// ReadMessage on the same stream would, message and error alike, with
// the aliasing documented on Reader.
func (rd *Reader) Read() (Message, error) {
	if err := rd.fill(4); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(rd.buf[rd.start:])
	rd.start += 4
	if err := checkLength(n); err != nil {
		return nil, err
	}
	rd.owned = n > uint32(len(rd.buf))
	if rd.owned {
		body, err := readBody((*spill)(rd), n)
		if err != nil {
			return nil, err
		}
		return parse(body)
	}
	if err := rd.fill(int(n)); err != nil {
		return nil, err
	}
	body := rd.buf[rd.start : rd.start+int(n)]
	rd.start += int(n)
	return parse(body)
}

// Owned reports whether the message the last Read returned owns its
// bytes: it was too large for the buffer and was read into a body of its
// own, so its payload stays valid past the next Read.
func (rd *Reader) Owned() bool { return rd.owned }

// fill reads until buf[start:end] holds need bytes, first sliding what
// is left to the front of the buffer so the read gets all the room
// there is. Its errors are io.ReadFull's for those need bytes: io.EOF
// when none of them arrived, io.ErrUnexpectedEOF when some did.
func (rd *Reader) fill(need int) error {
	if rd.end-rd.start >= need {
		return nil
	}
	rd.end = copy(rd.buf, rd.buf[rd.start:rd.end])
	rd.start = 0
	for rd.end < need {
		k, err := rd.r.Read(rd.buf[rd.end:])
		rd.end += k
		if err != nil && rd.end < need {
			if err == io.EOF && rd.end > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// spill is the source of a body too large for the buffer: the bytes the
// Reader already holds, then the connection itself. Read through it, the
// body's bytes and errors are those ReadMessage reads from the stream.
type spill Reader

func (s *spill) Read(p []byte) (int, error) {
	if s.start < s.end {
		n := copy(p, s.buf[s.start:s.end])
		s.start += n
		return n, nil
	}
	return s.r.Read(p)
}
