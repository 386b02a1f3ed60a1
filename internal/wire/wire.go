// Package wire defines the volcast streaming protocol: length-prefixed,
// typed binary messages exchanged between the content server (AP-side)
// and the players. The protocol is deliberately simple — a 5-byte header
// (uint32 length + uint8 type) followed by a fixed layout per type — so a
// reader can be implemented with preallocated buffers, gopacket-style.
//
// Message flow:
//
//	client → server: Hello with its first PoseUpdate right behind it (not
//	                 waiting for Welcome), then PoseUpdate at the trace
//	                 rate, Bye to end
//	server → client: Welcome, then per frame a burst of CellData
//	                 followed by FrameComplete; Adapt on quality changes
//	either → either: Ping on an idle link, answered by Pong (heartbeat)
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"volcast/internal/geom"
)

// MsgType identifies a message.
type MsgType uint8

// The protocol message types.
const (
	TypeHello MsgType = iota + 1
	TypeWelcome
	TypePoseUpdate
	TypeCellData
	TypeFrameComplete
	TypeAdapt
	TypeBye
	TypeSegmentRequest
	TypePing
	TypePong
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeWelcome:
		return "Welcome"
	case TypePoseUpdate:
		return "PoseUpdate"
	case TypeCellData:
		return "CellData"
	case TypeFrameComplete:
		return "FrameComplete"
	case TypeAdapt:
		return "Adapt"
	case TypeBye:
		return "Bye"
	case TypeSegmentRequest:
		return "SegmentRequest"
	case TypePing:
		return "Ping"
	case TypePong:
		return "Pong"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// MaxMessageSize bounds a single message (a full-density 550K-point cell
// is well under this); it protects readers from hostile length prefixes.
const MaxMessageSize = 16 << 20

// readChunk is the most ReadMessage (or a Reader, for a message larger
// than its buffer) allocates for a body before any of it has arrived.
const readChunk = 1 << 20

// Errors returned by the codec.
var (
	ErrTooLarge  = errors.New("wire: message exceeds MaxMessageSize")
	ErrShort     = errors.New("wire: short message body")
	ErrUnknown   = errors.New("wire: unknown message type")
	ErrBadString = errors.New("wire: invalid string field")
)

// Message is one protocol message.
type Message interface {
	// Type returns the message's wire type.
	Type() MsgType
	// appendBody serializes the body (without the header) onto b.
	appendBody(b []byte) []byte
	// parseBody deserializes the body.
	parseBody(b []byte) error
}

// Hello flag bits.
const (
	// HelloFlagPull declares a pull-mode client: the server must not
	// push viewport-computed bursts; the client fetches with
	// SegmentRequest.
	HelloFlagPull uint8 = 1 << 0
	// HelloFlagLayers declares a client that retains each cell's layered
	// prefix and accepts delta CellData (BaseLayers > 0): on a quality
	// upgrade of unchanged content the server ships only the enhancement
	// layers instead of re-sending the whole finer prefix.
	HelloFlagLayers uint8 = 1 << 1
)

// Hello introduces a client.
type Hello struct {
	// ClientID is chosen by the client (e.g. its user/trace index).
	ClientID uint32
	// Flags carries HelloFlag bits.
	Flags uint8
	// Name is a display label (bounded at 255 bytes).
	Name string
	// Scene is the session the client wants to join. The field trails the
	// name so a Hello from an older client parses as scene 0 (the default
	// single-scene session) — multi-tenant routing stays backward
	// compatible on the wire.
	Scene uint32
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (m *Hello) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.ClientID)
	b = append(b, m.Flags)
	name := m.Name
	if len(name) > 255 {
		name = name[:255]
	}
	b = append(b, byte(len(name)))
	b = append(b, name...)
	return binary.LittleEndian.AppendUint32(b, m.Scene)
}

func (m *Hello) parseBody(b []byte) error {
	if len(b) < 6 {
		return ErrShort
	}
	m.ClientID = binary.LittleEndian.Uint32(b)
	m.Flags = b[4]
	n := int(b[5])
	if len(b) < 6+n {
		return ErrBadString
	}
	m.Name = string(b[6 : 6+n])
	m.Scene = 0
	if rest := b[6+n:]; len(rest) >= 4 {
		m.Scene = binary.LittleEndian.Uint32(rest)
	}
	return nil
}

// Welcome acknowledges a Hello and describes the session, including the
// partition grid so pull-mode clients can run their own visibility.
type Welcome struct {
	// SessionID identifies the server session.
	SessionID uint32
	// FPS is the content frame rate.
	FPS uint16
	// NumFrames is the looped video length.
	NumFrames uint32
	// CellSize is the partition edge length in meters.
	CellSize float64
	// Qualities is the number of quality rungs available.
	Qualities uint8
	// GridOrigin is the grid's minimum corner.
	GridOrigin geom.Vec3
	// GridDims are the cell counts along X, Y, Z.
	GridDims [3]uint32
}

// Type implements Message.
func (*Welcome) Type() MsgType { return TypeWelcome }

func (m *Welcome) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.SessionID)
	b = binary.LittleEndian.AppendUint16(b, m.FPS)
	b = binary.LittleEndian.AppendUint32(b, m.NumFrames)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.CellSize))
	b = append(b, m.Qualities)
	for _, f := range []float64{m.GridOrigin.X, m.GridOrigin.Y, m.GridOrigin.Z} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, d := range m.GridDims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return b
}

func (m *Welcome) parseBody(b []byte) error {
	if len(b) < 4+2+4+8+1+24+12 {
		return ErrShort
	}
	m.SessionID = binary.LittleEndian.Uint32(b)
	m.FPS = binary.LittleEndian.Uint16(b[4:])
	m.NumFrames = binary.LittleEndian.Uint32(b[6:])
	m.CellSize = math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))
	m.Qualities = b[18]
	m.GridOrigin = geom.V(
		math.Float64frombits(binary.LittleEndian.Uint64(b[19:])),
		math.Float64frombits(binary.LittleEndian.Uint64(b[27:])),
		math.Float64frombits(binary.LittleEndian.Uint64(b[35:])),
	)
	for i := range m.GridDims {
		m.GridDims[i] = binary.LittleEndian.Uint32(b[43+4*i:])
	}
	return nil
}

// PoseUpdate reports the client's 6DoF viewport.
type PoseUpdate struct {
	// Seq is a monotonically increasing sequence number.
	Seq uint32
	// T is the client playback clock in seconds.
	T float64
	// Pose is the viewport pose.
	Pose geom.Pose
}

// Type implements Message.
func (*PoseUpdate) Type() MsgType { return TypePoseUpdate }

func (m *PoseUpdate) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.Seq)
	for _, f := range []float64{
		m.T,
		m.Pose.Pos.X, m.Pose.Pos.Y, m.Pose.Pos.Z,
		m.Pose.Rot.W, m.Pose.Rot.X, m.Pose.Rot.Y, m.Pose.Rot.Z,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func (m *PoseUpdate) parseBody(b []byte) error {
	if len(b) < 4+8*8 {
		return ErrShort
	}
	m.Seq = binary.LittleEndian.Uint32(b)
	f := make([]float64, 8)
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[4+8*i:]))
	}
	m.T = f[0]
	m.Pose.Pos = geom.V(f[1], f[2], f[3])
	m.Pose.Rot = geom.Quat{W: f[4], X: f[5], Y: f[6], Z: f[7]}
	return nil
}

// CellData carries one encoded cell of one frame.
type CellData struct {
	// Frame is the content frame index.
	Frame uint32
	// CellID is the cell within the partition grid.
	CellID uint32
	// Stride is the density rung the payload was encoded at.
	Stride uint8
	// Multicast marks cells delivered via a multicast group (shared
	// across clients; accounting only — TCP delivery is per-connection).
	Multicast bool
	// Payload is the codec block bytes: a self-contained layer prefix
	// when BaseLayers is 0, otherwise the enhancement delta that upgrades
	// a retained BaseLayers-prefix to Layers. A parsed payload is capped,
	// so an append copies. On a message ReadMessage returned it aliases
	// that message's own buffer, read into once; on one Reader.Read
	// returned it may alias the Reader's buffer, valid until the next Read.
	Payload []byte
	// Layers is the number of codec layers the delivered prefix spans
	// once assembled (0 = flat block / pre-layering sender). The two
	// layer fields trail the payload on the wire so older parsers ignore
	// them — the same compatibility scheme as Hello.Scene.
	Layers uint8
	// BaseLayers is how many layers the receiver already holds for this
	// cell: 0 means Payload decodes on its own; k > 0 means Payload must
	// be appended to the retained k-layer prefix before decoding.
	BaseLayers uint8
}

// Type implements Message.
func (*CellData) Type() MsgType { return TypeCellData }

func (m *CellData) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.Frame)
	b = binary.LittleEndian.AppendUint32(b, m.CellID)
	b = append(b, m.Stride)
	var mc byte
	if m.Multicast {
		mc = 1
	}
	b = append(b, mc)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Payload)))
	b = append(b, m.Payload...)
	return append(b, m.Layers, m.BaseLayers)
}

func (m *CellData) parseBody(b []byte) error {
	if len(b) < 4+4+1+1+4 {
		return ErrShort
	}
	m.Frame = binary.LittleEndian.Uint32(b)
	m.CellID = binary.LittleEndian.Uint32(b[4:])
	m.Stride = b[8]
	m.Multicast = b[9] == 1
	n := int(binary.LittleEndian.Uint32(b[10:]))
	if len(b) < 14+n {
		return ErrShort
	}
	m.Payload = b[14 : 14+n : 14+n]
	m.Layers, m.BaseLayers = 0, 0
	if rest := b[14+n:]; len(rest) >= 2 {
		m.Layers, m.BaseLayers = rest[0], rest[1]
	}
	return nil
}

// FrameComplete ends a frame's cell burst.
type FrameComplete struct {
	// Frame is the completed frame index.
	Frame uint32
	// Cells is the number of CellData messages sent for it.
	Cells uint32
	// Bytes is the total payload bytes of the frame.
	Bytes uint64
}

// Type implements Message.
func (*FrameComplete) Type() MsgType { return TypeFrameComplete }

func (m *FrameComplete) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.Frame)
	b = binary.LittleEndian.AppendUint32(b, m.Cells)
	return binary.LittleEndian.AppendUint64(b, m.Bytes)
}

func (m *FrameComplete) parseBody(b []byte) error {
	if len(b) < 16 {
		return ErrShort
	}
	m.Frame = binary.LittleEndian.Uint32(b)
	m.Cells = binary.LittleEndian.Uint32(b[4:])
	m.Bytes = binary.LittleEndian.Uint64(b[8:])
	return nil
}

// Adapt informs the client of a quality change decided by the
// server-side cross-layer controller.
type Adapt struct {
	// Quality is the new ladder rung.
	Quality uint8
	// Reason is the controller action that triggered it (abr.Action).
	Reason uint8
}

// Type implements Message.
func (*Adapt) Type() MsgType { return TypeAdapt }

func (m *Adapt) appendBody(b []byte) []byte { return append(b, m.Quality, m.Reason) }

func (m *Adapt) parseBody(b []byte) error {
	if len(b) < 2 {
		return ErrShort
	}
	m.Quality, m.Reason = b[0], b[1]
	return nil
}

// CellRef names one cell at one density for a pull-mode request.
type CellRef struct {
	// CellID is the cell within the partition grid.
	CellID uint32
	// Stride is the requested density rung.
	Stride uint8
	// HaveLayers is how many layers of this cell's layered block the
	// client already retains (0 = none / not layer-aware). A server that
	// verifies Token may answer with a delta instead of the full prefix.
	HaveLayers uint8
	// Token authenticates the retained prefix: the first 64 bits of the
	// codec content hash of the held bytes. A mismatch (stale cache,
	// different content) makes the server fall back to a full send.
	Token uint64
}

// SegmentRequest is the pull-mode fetch: instead of (or in addition to)
// the server pushing viewport-computed bursts, a client that runs its own
// visibility pipeline asks for exactly the cells it wants, like a DASH
// player requesting segments. The server answers with the corresponding
// CellData burst followed by FrameComplete.
type SegmentRequest struct {
	// Frame is the content frame index requested.
	Frame uint32
	// Cells are the wanted cells (bounded at 65535 per request).
	Cells []CellRef
}

// Type implements Message.
func (*SegmentRequest) Type() MsgType { return TypeSegmentRequest }

func (m *SegmentRequest) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.Frame)
	n := len(m.Cells)
	if n > 65535 {
		n = 65535
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(n))
	for _, c := range m.Cells[:n] {
		b = binary.LittleEndian.AppendUint32(b, c.CellID)
		b = append(b, c.Stride)
	}
	// The per-ref layer state trails the legacy ref array (9 bytes per
	// ref: HaveLayers + Token) so old servers parse the request unchanged
	// and simply answer with full prefixes.
	for _, c := range m.Cells[:n] {
		b = append(b, c.HaveLayers)
		b = binary.LittleEndian.AppendUint64(b, c.Token)
	}
	return b
}

func (m *SegmentRequest) parseBody(b []byte) error {
	if len(b) < 6 {
		return ErrShort
	}
	m.Frame = binary.LittleEndian.Uint32(b)
	n := int(binary.LittleEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) < n*5 {
		return ErrShort
	}
	m.Cells = make([]CellRef, n)
	for i := 0; i < n; i++ {
		m.Cells[i].CellID = binary.LittleEndian.Uint32(b[i*5:])
		m.Cells[i].Stride = b[i*5+4]
	}
	if rest := b[n*5:]; len(rest) >= n*9 {
		for i := 0; i < n; i++ {
			m.Cells[i].HaveLayers = rest[i*9]
			m.Cells[i].Token = binary.LittleEndian.Uint64(rest[i*9+1:])
		}
	}
	return nil
}

// Ping is the heartbeat probe. Either side may send it on an idle
// connection; the peer must answer with a Pong echoing Seq and T. A side
// that sees neither data nor Pongs within its idle timeout declares the
// connection dead — that is what turns a silent peer (crashed process,
// blackholed link) into a prompt, countable disconnect instead of an
// unbounded hang.
type Ping struct {
	// Seq matches a Pong to its Ping.
	Seq uint32
	// T is the sender's clock in unix nanoseconds; echoed back, it
	// yields the heartbeat RTT without synchronized clocks.
	T int64
}

// Type implements Message.
func (*Ping) Type() MsgType { return TypePing }

func (m *Ping) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.Seq)
	return binary.LittleEndian.AppendUint64(b, uint64(m.T))
}

func (m *Ping) parseBody(b []byte) error {
	if len(b) < 12 {
		return ErrShort
	}
	m.Seq = binary.LittleEndian.Uint32(b)
	m.T = int64(binary.LittleEndian.Uint64(b[4:]))
	return nil
}

// Pong answers a Ping, echoing its fields.
type Pong struct {
	// Seq is the answered Ping's sequence number.
	Seq uint32
	// T is the answered Ping's timestamp.
	T int64
}

// Type implements Message.
func (*Pong) Type() MsgType { return TypePong }

func (m *Pong) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, m.Seq)
	return binary.LittleEndian.AppendUint64(b, uint64(m.T))
}

func (m *Pong) parseBody(b []byte) error {
	if len(b) < 12 {
		return ErrShort
	}
	m.Seq = binary.LittleEndian.Uint32(b)
	m.T = int64(binary.LittleEndian.Uint64(b[4:]))
	return nil
}

// Bye terminates the session from either side.
type Bye struct{}

// Type implements Message.
func (*Bye) Type() MsgType { return TypeBye }

func (m *Bye) appendBody(b []byte) []byte { return b }
func (m *Bye) parseBody([]byte) error     { return nil }

// newMessage allocates the concrete type for a wire type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeWelcome:
		return &Welcome{}, nil
	case TypePoseUpdate:
		return &PoseUpdate{}, nil
	case TypeCellData:
		return &CellData{}, nil
	case TypeFrameComplete:
		return &FrameComplete{}, nil
	case TypeAdapt:
		return &Adapt{}, nil
	case TypeBye:
		return &Bye{}, nil
	case TypeSegmentRequest:
		return &SegmentRequest{}, nil
	case TypePing:
		return &Ping{}, nil
	case TypePong:
		return &Pong{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknown, t)
	}
}

// AppendMessage frames one message onto dst and returns the extended
// slice — the append-style core of the codec. It allocates nothing when
// dst has capacity, which is what lets pooled buffers (see Buffer) and
// batch framing reuse one backing array across messages. Multiple
// messages may be framed back to back onto the same slice; a reader
// consumes them as a valid stream.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0)
	dst = m.appendBody(dst)
	body := len(dst) - start - 5
	if body+1 > MaxMessageSize {
		return dst[:start], ErrTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(body+1))
	dst[start+4] = byte(m.Type())
	return dst, nil
}

// WriteMessage frames one message into a pooled Buffer and writes it.
func WriteMessage(w io.Writer, m Message) error {
	b, err := NewBuffer(m)
	if err != nil {
		return err
	}
	_, err = w.Write(b.Bytes())
	b.Release()
	return err
}

// ReadMessage reads and parses one message straight off r: two reads
// and a body of its own per message. The connections' read loops frame
// through a Reader instead; ReadMessage is the oracle its differential
// tests and fuzz target hold it to, and the benchmark's wire micro.
func ReadMessage(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if err := checkLength(n); err != nil {
		return nil, err
	}
	body, err := readBody(r, n)
	if err != nil {
		return nil, err
	}
	return parse(body)
}

// checkLength vets a length prefix before anything is read on its word.
func checkLength(n uint32) error {
	if n == 0 {
		return ErrShort
	}
	if n > MaxMessageSize {
		return ErrTooLarge
	}
	return nil
}

// readBody reads an n-byte body, n checked, into a buffer of its own.
// The prefix is the peer's word, not bytes: it allocates at most
// readChunk before the body arrives and doubles only as it does, so a
// peer that claims MaxMessageSize and stalls costs readChunk, not 16 MB.
// A body up to readChunk is one allocation and one read.
func readBody(r io.Reader, n uint32) ([]byte, error) {
	buf := make([]byte, min(n, readChunk))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for uint32(len(buf)) < n {
		grown := make([]byte, min(n, 2*uint32(len(buf))))
		copy(grown, buf)
		if _, err := io.ReadFull(r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}

// parse is the one parser behind ReadMessage and Reader: the type byte,
// then the type's body. The message may alias body (CellData.Payload).
func parse(body []byte) (Message, error) {
	m, err := newMessage(MsgType(body[0]))
	if err != nil {
		return nil, err
	}
	if err := m.parseBody(body[1:]); err != nil {
		return nil, err
	}
	return m, nil
}
