package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"

	"volcast/internal/geom"
)

// frame concatenates the framed messages into one stream.
func frame(t testing.TB, msgs ...Message) []byte {
	t.Helper()
	var out []byte
	for _, m := range msgs {
		var err error
		if out, err = AppendMessage(out, m); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// cellOfBody is a CellData whose framed body (type byte included) is n
// bytes long.
func cellOfBody(n int) *CellData {
	const overhead = 1 + 14 + 2 // type, fixed fields, layer fields
	p := make([]byte, n-overhead)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return &CellData{Frame: 3, CellID: uint32(n), Stride: 2, Payload: p, Layers: 3}
}

// controls is a populated message of every type but CellData.
func controls() []Message {
	return []Message{
		&Hello{ClientID: 7, Flags: HelloFlagLayers, Name: "viewer", Scene: 2},
		&Welcome{SessionID: 1, FPS: 30, NumFrames: 300, CellSize: 0.5, Qualities: 3,
			GridOrigin: geom.V(-1, 0, -1), GridDims: [3]uint32{4, 4, 4}},
		&PoseUpdate{Seq: 9, T: 1.5, Pose: geom.Pose{Pos: geom.V(1, 2, 3), Rot: geom.QuatIdent()}},
		&FrameComplete{Frame: 3, Cells: 19, Bytes: 170_000},
		&Adapt{Quality: 1, Reason: 2},
		&SegmentRequest{Frame: 4, Cells: []CellRef{{CellID: 1, Stride: 1}, {CellID: 9, Stride: 4, HaveLayers: 2, Token: 77}}},
		&Ping{Seq: 1, T: 12345},
		&Pong{Seq: 1, T: 12345},
		&Bye{},
	}
}

// drain reads src to its first error with next, re-encoding each message
// before the next call (a Reader's payload is valid only until then): the
// messages by value, and the error that ended the stream.
func drain(t testing.TB, next func() (Message, error)) ([][]byte, error) {
	t.Helper()
	var got [][]byte
	for {
		m, err := next()
		if err != nil {
			return got, err
		}
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
}

// compareReaders reads stream with successive ReadMessage calls and with
// one Reader of the given buffer size over each source, and fails unless
// every source yields the same messages and the same terminal error.
func compareReaders(t *testing.T, stream []byte, size int) {
	t.Helper()
	oracle := bytes.NewReader(stream)
	want, wantErr := drain(t, func() (Message, error) { return ReadMessage(oracle) })
	for _, src := range []struct {
		name string
		r    func() io.Reader
	}{
		{"whole", func() io.Reader { return bytes.NewReader(stream) }},
		{"one-byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) }},
		{"half", func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) }},
	} {
		got, err := drain(t, newReaderSize(src.r(), size).Read)
		if d := diffStreams(got, err, want, wantErr); d != "" {
			t.Errorf("%s: %s", src.name, d)
		}
	}
}

// diffStreams describes the first difference between two read-out
// streams, or returns "" when they are the same.
func diffStreams(got [][]byte, err error, want [][]byte, wantErr error) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d messages, ReadMessage read %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("message %d differs:\n%x\n%x", i, got[i], want[i])
		}
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("the stream ends with %v, ReadMessage's with %v", err, wantErr)
	}
	return ""
}

// TestReaderMatchesReadMessage holds Reader.Read to ReadMessage, its
// oracle: over a whole buffer, a byte at a time and in halves, the same
// messages (payloads compared by value) and the same terminal error, for
// CellData below, at and above the buffer, every control type, and the
// streams that end badly.
func TestReaderMatchesReadMessage(t *testing.T) {
	prefix := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	ctl := frame(t, controls()...)
	below := cellOfBody(1000)
	atBuf := cellOfBody(readBufSize)         // the body fills the buffer
	atFramed := cellOfBody(readBufSize - 4)  // prefix and body fill it
	above := cellOfBody(readBufSize + 1)     // one byte too many
	large := cellOfBody(2*readChunk + 12345) // past two of readBody's chunks
	burst := []Message{below, atFramed, below, atBuf, below, above, below, &FrameComplete{Frame: 3, Cells: 6}}
	cut := frame(t, below, above)
	cases := []struct {
		name   string
		stream []byte
	}{
		{"empty", nil},
		{"controls", ctl},
		{"cell-below", frame(t, below, below, below)},
		{"cell-at-buffer", frame(t, atBuf, atBuf)},
		{"cell-framed-at-buffer", frame(t, atFramed, atFramed)},
		{"cell-above", frame(t, above, above)},
		{"cell-large", frame(t, below, large, below)},
		{"burst", append(frame(t, burst...), ctl...)},
		{"zero-prefix", append(frame(t, below), prefix(0)...)},
		{"too-large", append(frame(t, below), prefix(MaxMessageSize+1)...)},
		{"hostile-prefix", append(append(frame(t, below), prefix(MaxMessageSize)...), make([]byte, 5000)...)},
		{"unknown-type", append(append(frame(t, below), prefix(1)...), 200)},
		{"short-body", append(append(frame(t, below), prefix(3)...), byte(TypeWelcome), 1, 2)},
		{"prefix-cut", append(frame(t, below), 7, 0)},
		{"body-absent", append(frame(t, below), prefix(10)...)},
		{"tail-cut", cut[:len(cut)-5]},
		{"cut-in-buffer", cut[:4+1000/2]},
		{"cut-at-chunk", frame(t, large)[:4+readChunk]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { compareReaders(t, tc.stream, readBufSize) })
	}

	// A prefix claiming MaxMessageSize costs what it does in ReadMessage
	// (TestReadMessageHostilePrefixBounded): readChunk up front, then at
	// most four times what arrived — the Reader's own buffer aside.
	const slack = 1 << 16
	for _, arrived := range []int{0, 3 * readChunk} {
		data := append(prefix(MaxMessageSize), make([]byte, arrived)...)
		rd := NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := rd.Read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d body bytes under a prefix of %d parsed", arrived, MaxMessageSize)
		}
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(readChunk+4*arrived+slack); got > budget {
			t.Errorf("%d of %d body bytes allocated %d bytes, want ≤ %d", arrived, MaxMessageSize, got, budget)
		}
	}
}

// TestReaderOwned pins Owned: a message that fits the buffer is parsed
// in it, and one that does not gets a body of its own whose payload
// outlives the next Read.
func TestReaderOwned(t *testing.T) {
	small, big := cellOfBody(1000), cellOfBody(readBufSize+1)
	rd := NewReader(bytes.NewReader(frame(t, small, big, small, small)))
	var kept []byte
	for i, want := range []bool{false, true, false, false} {
		m, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		if rd.Owned() != want {
			t.Errorf("message %d: Owned() = %v, want %v", i, rd.Owned(), want)
		}
		if want {
			kept = m.(*CellData).Payload
		}
	}
	if !bytes.Equal(kept, big.Payload) {
		t.Error("an owned payload changed under later reads")
	}
}

// cycle serves the same bytes forever.
type cycle struct {
	data []byte
	off  int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], c.data[c.off:])
		n += k
		c.off = (c.off + k) % len(c.data)
	}
	return n, nil
}

// TestReaderCellDataOneAlloc pins the in-buffer path's cost: a CellData
// that fits the buffer costs the one message struct, its payload parsed
// where it lies.
func TestReaderCellDataOneAlloc(t *testing.T) {
	rd := NewReader(&cycle{data: frame(t, cellOfBody(9000))})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rd.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("an in-buffer CellData read costs %v allocations, want 1", allocs)
	}
}

// countingReader counts the reads made of it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderFrameReads bounds the syscalls of a fan-out frame: 19 cells
// of ≈ 9 KB and their FrameComplete, ≈ 170 KB, take at most one read per
// buffer's worth of bytes and one more, where ReadMessage takes two per
// message.
func TestReaderFrameReads(t *testing.T) {
	var msgs []Message
	for i := 0; i < 19; i++ {
		msgs = append(msgs, cellOfBody(8500+97*i))
	}
	msgs = append(msgs, &FrameComplete{Frame: 3, Cells: 19})
	stream := frame(t, msgs...)
	src := &countingReader{r: bytes.NewReader(stream)}
	rd := NewReader(src)
	for range msgs {
		if _, err := rd.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if limit := int(math.Ceil(float64(len(stream))/readBufSize)) + 1; src.reads > limit {
		t.Errorf("a %d-byte frame of %d messages took %d reads, want ≤ %d", len(stream), len(msgs), src.reads, limit)
	}
}

func BenchmarkReaderCellData(b *testing.B) {
	for _, size := range []int{8 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			raw := frame(b, &CellData{Frame: 1, CellID: 2, Payload: make([]byte, size)})
			rd := NewReader(&cycle{data: raw})
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rd.Read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
