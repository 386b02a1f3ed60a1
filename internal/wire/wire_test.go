package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"volcast/internal/geom"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type() != m.Type() {
		t.Fatalf("type %v != %v", got.Type(), m.Type())
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	got := roundTrip(t, &Hello{ClientID: 42, Name: "player-7"}).(*Hello)
	if got.ClientID != 42 || got.Name != "player-7" {
		t.Errorf("got %+v", got)
	}
	// Oversized name is truncated, not corrupted.
	long := &Hello{ClientID: 1, Name: strings.Repeat("x", 300)}
	got2 := roundTrip(t, long).(*Hello)
	if len(got2.Name) != 255 {
		t.Errorf("name length %d", len(got2.Name))
	}
}

func TestHelloSceneRoundTrip(t *testing.T) {
	got := roundTrip(t, &Hello{ClientID: 3, Name: "p", Scene: 17}).(*Hello)
	if got.Scene != 17 {
		t.Errorf("scene %d, want 17", got.Scene)
	}
}

func TestHelloLegacyWithoutSceneParsesSceneZero(t *testing.T) {
	// A pre-scene Hello body: ClientID, Flags, name length, name — no
	// trailing scene field. It must parse as scene 0, not an error.
	var body []byte
	body = binary.LittleEndian.AppendUint32(body, 42)
	body = append(body, 0) // flags
	body = append(body, 3) // name length
	body = append(body, "old"...)
	var m Hello
	if err := m.parseBody(body); err != nil {
		t.Fatalf("legacy Hello rejected: %v", err)
	}
	if m.ClientID != 42 || m.Name != "old" || m.Scene != 0 {
		t.Errorf("got %+v", m)
	}
}

func TestWriteMessageMatchesAppendMessage(t *testing.T) {
	msgs := []Message{
		&Hello{ClientID: 9, Name: "enc", Scene: 2},
		&CellData{Frame: 4, CellID: 7, Stride: 2, Multicast: true, Payload: []byte{1, 2, 3}},
		&FrameComplete{Frame: 4, Cells: 1, Bytes: 3},
		&Ping{Seq: 1, T: 123},
	}
	for _, m := range msgs {
		enc, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, buf.Bytes()) {
			t.Errorf("%v: AppendMessage differs from WriteMessage bytes", m.Type())
		}
		got, err := ReadMessage(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%v: encoded bytes unreadable: %v", m.Type(), err)
		}
		if got.Type() != m.Type() {
			t.Errorf("type %v != %v", got.Type(), m.Type())
		}
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := &Welcome{SessionID: 7, FPS: 30, NumFrames: 300, CellSize: 0.5, Qualities: 3}
	got := roundTrip(t, w).(*Welcome)
	if *got != *w {
		t.Errorf("got %+v want %+v", got, w)
	}
}

func TestPoseUpdateRoundTrip(t *testing.T) {
	p := &PoseUpdate{
		Seq: 99, T: 1.25,
		Pose: geom.Pose{
			Pos: geom.V(1.5, -2.25, 3.125),
			Rot: geom.AxisAngle(geom.V(0, 1, 0), 0.7),
		},
	}
	got := roundTrip(t, p).(*PoseUpdate)
	if got.Seq != p.Seq || got.T != p.T || got.Pose.Pos != p.Pose.Pos || got.Pose.Rot != p.Pose.Rot {
		t.Errorf("got %+v want %+v", got, p)
	}
}

func TestCellDataRoundTrip(t *testing.T) {
	c := &CellData{Frame: 3, CellID: 17, Stride: 2, Multicast: true, Payload: []byte{1, 2, 3, 250}}
	got := roundTrip(t, c).(*CellData)
	if got.Frame != 3 || got.CellID != 17 || got.Stride != 2 || !got.Multicast ||
		!bytes.Equal(got.Payload, c.Payload) {
		t.Errorf("got %+v", got)
	}
	// Empty payload is legal.
	e := roundTrip(t, &CellData{Frame: 1}).(*CellData)
	if len(e.Payload) != 0 {
		t.Errorf("payload %v", e.Payload)
	}
}

// TestCellDataPayloadReadOnce pins what a received payload costs: the
// length prefix, the message buffer and the message, with Payload a
// capped view of the buffer — an append to it must not reach the layer
// fields behind it.
func TestCellDataPayloadReadOnce(t *testing.T) {
	c := &CellData{Frame: 2, CellID: 9, Payload: bytes.Repeat([]byte{5}, 4096), Layers: 3, BaseLayers: 1}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, c); err != nil {
		t.Fatal(err)
	}
	var r bytes.Reader
	var got *CellData
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(buf.Bytes())
		m, err := ReadMessage(&r)
		if err != nil {
			t.Fatal(err)
		}
		got = m.(*CellData)
	})
	if allocs > 3 {
		t.Errorf("ReadMessage(CellData): %.0f allocations, want 3 (the payload was copied out of the buffer again)", allocs)
	}
	if cap(got.Payload) != len(got.Payload) {
		t.Fatalf("payload has %d spare bytes of the message buffer", cap(got.Payload)-len(got.Payload))
	}
	if !bytes.Equal(got.Payload, c.Payload) || got.Layers != 3 || got.BaseLayers != 1 {
		t.Errorf("got %d payload bytes, layers %d/%d", len(got.Payload), got.Layers, got.BaseLayers)
	}
}

func TestCellDataLayerFieldsRoundTrip(t *testing.T) {
	c := &CellData{Frame: 2, CellID: 9, Stride: 4, Payload: []byte{7, 7}, Layers: 3, BaseLayers: 1}
	got := roundTrip(t, c).(*CellData)
	if got.Layers != 3 || got.BaseLayers != 1 || !bytes.Equal(got.Payload, c.Payload) {
		t.Errorf("got %+v", got)
	}
	// A legacy body without the trailing layer bytes parses as 0/0.
	var legacy []byte
	legacy = binary.LittleEndian.AppendUint32(legacy, 2)
	legacy = binary.LittleEndian.AppendUint32(legacy, 9)
	legacy = append(legacy, 4, 0)
	legacy = binary.LittleEndian.AppendUint32(legacy, 2)
	legacy = append(legacy, 7, 7)
	var m CellData
	if err := m.parseBody(legacy); err != nil {
		t.Fatalf("legacy CellData rejected: %v", err)
	}
	if m.Layers != 0 || m.BaseLayers != 0 || !bytes.Equal(m.Payload, []byte{7, 7}) {
		t.Errorf("legacy parse got %+v", m)
	}
	// The new body is the legacy body plus exactly two trailing bytes, so
	// an old parser (which reads the payload by its length prefix and
	// ignores the rest) still sees the same fields.
	full := (&CellData{Frame: 2, CellID: 9, Stride: 4, Payload: []byte{7, 7}, Layers: 3, BaseLayers: 1}).appendBody(nil)
	if !bytes.Equal(full[:len(legacy)], legacy) || len(full) != len(legacy)+2 {
		t.Error("layer fields are not a pure trailing extension of the legacy body")
	}
}

func TestSegmentRequestLayerFieldsRoundTrip(t *testing.T) {
	r := &SegmentRequest{Frame: 8, Cells: []CellRef{
		{CellID: 1, Stride: 1, HaveLayers: 2, Token: 0xDEADBEEFCAFE},
		{CellID: 5, Stride: 4},
	}}
	got := roundTrip(t, r).(*SegmentRequest)
	if len(got.Cells) != 2 || got.Cells[0].HaveLayers != 2 ||
		got.Cells[0].Token != 0xDEADBEEFCAFE || got.Cells[1].HaveLayers != 0 {
		t.Errorf("got %+v", got.Cells)
	}
	// A legacy request (5-byte refs, no trailing layer array) parses with
	// zeroed layer state.
	var legacy []byte
	legacy = binary.LittleEndian.AppendUint32(legacy, 8)
	legacy = binary.LittleEndian.AppendUint16(legacy, 1)
	legacy = binary.LittleEndian.AppendUint32(legacy, 5)
	legacy = append(legacy, 2)
	var m SegmentRequest
	if err := m.parseBody(legacy); err != nil {
		t.Fatalf("legacy SegmentRequest rejected: %v", err)
	}
	if len(m.Cells) != 1 || m.Cells[0].CellID != 5 || m.Cells[0].Stride != 2 ||
		m.Cells[0].HaveLayers != 0 || m.Cells[0].Token != 0 {
		t.Errorf("legacy parse got %+v", m.Cells)
	}
}

func TestFrameCompleteAdaptBye(t *testing.T) {
	fcGot := roundTrip(t, &FrameComplete{Frame: 5, Cells: 12, Bytes: 1 << 40}).(*FrameComplete)
	if fcGot.Frame != 5 || fcGot.Cells != 12 || fcGot.Bytes != 1<<40 {
		t.Errorf("got %+v", fcGot)
	}
	aGot := roundTrip(t, &Adapt{Quality: 2, Reason: 3}).(*Adapt)
	if aGot.Quality != 2 || aGot.Reason != 3 {
		t.Errorf("got %+v", aGot)
	}
	roundTrip(t, &Bye{})
}

func TestPingPongRoundTrip(t *testing.T) {
	pi := roundTrip(t, &Ping{Seq: 41, T: 1_722_000_000_123_456_789}).(*Ping)
	if pi.Seq != 41 || pi.T != 1_722_000_000_123_456_789 {
		t.Errorf("ping got %+v", pi)
	}
	po := roundTrip(t, &Pong{Seq: 41, T: -7}).(*Pong)
	if po.Seq != 41 || po.T != -7 {
		t.Errorf("pong got %+v", po)
	}
	// A Pong must echo a Ping field-for-field.
	echo := &Pong{Seq: pi.Seq, T: pi.T}
	if echo.Seq != pi.Seq || echo.T != pi.T {
		t.Error("echo mismatch")
	}
	// Short bodies error cleanly.
	if err := (&Ping{}).parseBody(make([]byte, 11)); !errors.Is(err, ErrShort) {
		t.Errorf("short ping: %v", err)
	}
	if err := (&Pong{}).parseBody(make([]byte, 11)); !errors.Is(err, ErrShort) {
		t.Errorf("short pong: %v", err)
	}
}

func TestReadMessageErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadMessage(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("truncated header accepted")
	}
	// Zero length.
	var zero bytes.Buffer
	binary.Write(&zero, binary.LittleEndian, uint32(0))
	if _, err := ReadMessage(&zero); !errors.Is(err, ErrShort) {
		t.Errorf("zero length: %v", err)
	}
	// Hostile length.
	var huge bytes.Buffer
	binary.Write(&huge, binary.LittleEndian, uint32(MaxMessageSize+1))
	if _, err := ReadMessage(&huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge length: %v", err)
	}
	// Unknown type.
	var unk bytes.Buffer
	binary.Write(&unk, binary.LittleEndian, uint32(1))
	unk.WriteByte(200)
	if _, err := ReadMessage(&unk); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown type: %v", err)
	}
	// Truncated body.
	var short bytes.Buffer
	binary.Write(&short, binary.LittleEndian, uint32(3))
	short.WriteByte(byte(TypeWelcome))
	short.Write([]byte{1, 2})
	if _, err := ReadMessage(&short); !errors.Is(err, ErrShort) {
		t.Errorf("short body: %v", err)
	}
	// Body missing bytes entirely.
	var eof bytes.Buffer
	binary.Write(&eof, binary.LittleEndian, uint32(10))
	eof.WriteByte(byte(TypeBye))
	if _, err := ReadMessage(&eof); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("eof body: %v", err)
	}
	// Hello with a lying name length.
	var lie bytes.Buffer
	body := []byte{0, 0, 0, 0, 0, 50, 'a'}
	binary.Write(&lie, binary.LittleEndian, uint32(len(body)+1))
	lie.WriteByte(byte(TypeHello))
	lie.Write(body)
	if _, err := ReadMessage(&lie); !errors.Is(err, ErrBadString) {
		t.Errorf("lying hello: %v", err)
	}
	// CellData with a lying payload length.
	var lie2 bytes.Buffer
	body2 := make([]byte, 14)
	binary.LittleEndian.PutUint32(body2[10:], 1000)
	binary.Write(&lie2, binary.LittleEndian, uint32(len(body2)+1))
	lie2.WriteByte(byte(TypeCellData))
	lie2.Write(body2)
	if _, err := ReadMessage(&lie2); !errors.Is(err, ErrShort) {
		t.Errorf("lying celldata: %v", err)
	}
}

// TestReadMessageHostilePrefixBounded pins what a length prefix buys
// before its body arrives: four bytes claiming MaxMessageSize and then
// nothing (an unauthenticated socket's first read in the hub's handshake)
// cost readChunk, not 16 MB; a body that arrives in part costs at most
// readChunk plus four times what arrived; and a body past readChunk that
// does arrive reads whole, its payload still capped at its own length.
func TestReadMessageHostilePrefixBounded(t *testing.T) {
	allocated := func(data []byte) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadMessage(bytes.NewReader(data)); err == nil {
			t.Fatalf("a body of %d bytes under a prefix of %d parsed", len(data)-4, MaxMessageSize)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 1 << 16
	if got := allocated([]byte{0, 0, 0, 1}); got > readChunk+slack {
		t.Errorf("a prefix of MaxMessageSize with no body allocated %d bytes, want ≤ %d", got, readChunk+slack)
	}
	part := binary.LittleEndian.AppendUint32(nil, MaxMessageSize)
	part = append(part, byte(TypeCellData))
	part = append(part, make([]byte, 3*readChunk)...)
	if got, arrived := allocated(part), uint64(len(part)-4); got > readChunk+4*arrived+slack {
		t.Errorf("%d of %d body bytes allocated %d bytes, want ≤ %d", arrived, MaxMessageSize, got, readChunk+4*arrived+slack)
	}

	c := &CellData{Frame: 1, CellID: 2, Payload: bytes.Repeat([]byte{0xa5}, 5*readChunk+3), Layers: 2}
	got := roundTrip(t, c).(*CellData)
	if !bytes.Equal(got.Payload, c.Payload) || got.Layers != 2 || cap(got.Payload) != len(got.Payload) {
		t.Errorf("a %d-byte payload read back as %d bytes (cap %d), layers %d", len(c.Payload), len(got.Payload), cap(got.Payload), got.Layers)
	}
}

func TestMsgTypeString(t *testing.T) {
	for mt := TypeHello; mt <= TypePong; mt++ {
		if mt.String() == "" || strings.HasPrefix(mt.String(), "MsgType(") {
			t.Errorf("missing name for %d", mt)
		}
	}
	if !strings.HasPrefix(MsgType(99).String(), "MsgType(") {
		t.Error("unknown type name wrong")
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{ClientID: 1, Name: "a"},
		&PoseUpdate{Seq: 1, Pose: geom.Pose{Rot: geom.QuatIdent()}},
		&CellData{Frame: 0, CellID: 4, Payload: []byte{9}},
		&Bye{},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("message %d type %v want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Error("stream not drained")
	}
}

// Property: pose round trip is bit-exact for any finite floats.
func TestPropertyPoseRoundTrip(t *testing.T) {
	f := func(px, py, pz, qw, qx, qy, qz, tm float64) bool {
		for _, v := range []float64{px, py, pz, qw, qx, qy, qz, tm} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		m := &PoseUpdate{T: tm, Pose: geom.Pose{
			Pos: geom.V(px, py, pz),
			Rot: geom.Quat{W: qw, X: qx, Y: qy, Z: qz},
		}}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		g := got.(*PoseUpdate)
		return g.T == tm && g.Pose.Pos == m.Pose.Pos && g.Pose.Rot == m.Pose.Rot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteCellData(b *testing.B) {
	payload := make([]byte, 32*1024)
	m := &CellData{Frame: 1, CellID: 2, Stride: 1, Payload: payload}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCellData(b *testing.B) {
	payload := make([]byte, 32*1024)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &CellData{Frame: 1, CellID: 2, Payload: payload}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMessage(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: ReadMessage never panics and never over-reads on arbitrary
// byte streams (fuzz-style robustness for the network-facing parser).
func TestPropertyReadMessageRobust(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		r.Read(buf)
		// Must not panic; errors are expected and fine.
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on input %x: %v", buf, p)
				}
			}()
			ReadMessage(bytes.NewReader(buf))
		}()
	}
}

// Property: flipping any single byte of a valid message either still
// parses (the flip hit a don't-care bit) or errors — never panics.
func TestPropertyBitflipRobust(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &CellData{Frame: 3, CellID: 17, Stride: 2, Payload: []byte{1, 2, 3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 1 << bit
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic flipping byte %d bit %d: %v", i, bit, p)
					}
				}()
				ReadMessage(bytes.NewReader(mut))
			}()
		}
	}
}
