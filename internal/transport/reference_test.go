package transport

import (
	"bytes"
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/wire"
)

// refReceiver is the receiver as it stood before the decode pipeline
// (DESIGN.md §17), kept verbatim: every cell decoded inline on the read
// loop, points and errors counted straight into ClientStats. The
// pipeline must account, reassemble and decode exactly as it does.
type refReceiver struct {
	stats  *ClientStats
	id     int
	tracer *obs.Tracer
	decode bool
	dec    codec.Decoder
	held   map[uint32]*heldCell
	// Per-frame decode time accumulates across the frame's cells and lands
	// as one span at FrameComplete; the gap between consecutive
	// FrameCompletes is the client's presentation interval.
	decStart, lastComplete time.Time
	decDur                 time.Duration
}

func newRefReceiver(stats *ClientStats, id int, tracer *obs.Tracer, decode, layers bool) *refReceiver {
	if tracer == nil {
		tracer = obs.Default()
	}
	r := &refReceiver{
		stats: stats, id: id, tracer: tracer, decode: decode,
		dec: codec.Decoder{Cache: blockcache.Cells()},
	}
	if layers {
		r.held = map[uint32]*heldCell{}
	}
	return r
}

// cell consumes one CellData.
func (r *refReceiver) cell(m *wire.CellData) {
	st := r.stats
	st.Cells++
	st.Bytes += int64(len(m.Payload))
	if m.Multicast {
		st.MulticastBytes += int64(len(m.Payload))
	}
	payload := m.Payload
	if m.BaseLayers > 0 {
		// Enhancement-only delta: append to the retained prefix. Without
		// it (shouldn't happen — the server tracks or verifies what we
		// hold) the delta is undecodable and counts as corrupt.
		hc := r.held[m.CellID]
		if hc == nil || len(hc.data) == 0 {
			st.DecodeErrors++
			return
		}
		payload = append(append(make([]byte, 0, len(hc.data)+len(m.Payload)), hc.data...), m.Payload...)
		st.DeltaCells++
		st.DeltaBytes += int64(len(m.Payload))
		st.DeltaFullBytes += int64(len(payload))
	}
	if r.held != nil && m.Layers > 0 {
		cp := bytes.Clone(payload)
		r.held[m.CellID] = &heldCell{data: cp, layers: m.Layers, token: codec.HashBytes(cp)[0]}
	}
	if !r.decode {
		return
	}
	t0 := time.Now()
	dc, err := r.dec.Decode(payload)
	if r.decStart.IsZero() {
		r.decStart = t0
	}
	r.decDur += time.Since(t0)
	if err != nil {
		st.DecodeErrors++
	} else {
		st.Points += int64(len(dc.Points))
	}
}

// complete closes out a frame at its FrameComplete marker.
func (r *refReceiver) complete(frame uint32) {
	r.stats.Frames++
	if r.decDur > 0 {
		r.tracer.Record(int(frame), r.id, obs.StageDecode, r.decStart, r.decDur)
	}
	r.decStart, r.decDur = time.Time{}, 0
	now := time.Now()
	if !r.lastComplete.IsZero() {
		r.tracer.Record(int(frame), r.id, obs.StagePresent, r.lastComplete, now.Sub(r.lastComplete))
	}
	r.lastComplete = now
}

// TestReceiverMatchesReference plays one scripted stream — a frame of
// full cells of very unequal size, a frame with a delta onto a held
// prefix, a delta whose prefix is missing and a block with a flipped
// byte, a frame with no cells, two frames back to back — through the
// inline reference and through the pipeline at pool widths 1, 2 and 8:
// the same ClientStats field for field, and one Decode span for each
// frame that decoded anything.
func TestReceiverMatchesReference(t *testing.T) {
	store := testStore(t, 2, 20_000)
	full := func(fi int) (cells []*wire.CellData) {
		store.Frame(fi).Occupied.ForEach(func(id cell.ID) {
			blk := store.LayeredBlock(fi, id)
			cells = append(cells, &wire.CellData{
				Frame: uint32(fi), CellID: uint32(id), Stride: 1,
				Payload: blk.Data, Layers: uint8(blk.Layers()), Multicast: id%2 == 0,
			})
		})
		return cells
	}
	frame0 := full(0)
	small, large := frame0[0], frame0[0]
	for _, cd := range frame0 {
		if len(cd.Payload) < len(small.Payload) {
			small = cd
		}
		if len(cd.Payload) > len(large.Payload) {
			large = cd
		}
	}
	if len(large.Payload) < 8*len(small.Payload) {
		t.Fatalf("cells of %d to %d bytes: not the unequal frame the pool is for", len(small.Payload), len(large.Payload))
	}
	blk := store.LayeredBlock(0, cell.ID(large.CellID))
	if blk.Layers() < 2 {
		t.Fatal("test store has no layered block to script a delta with")
	}
	top := uint8(blk.Layers())
	flipped := bytes.Clone(blk.Data)
	flipped[len(flipped)/2] ^= 0x40
	const held, missing, corrupt = 9001, 9002, 9003 // cell IDs the store does not use
	script := [][]*wire.CellData{
		frame0,
		{
			{Frame: 1, CellID: held, Stride: 4, Payload: blk.Prefix(1), Layers: 1},
			{Frame: 1, CellID: held, Stride: 1, Payload: blk.Delta(1, int(top)), Layers: top, BaseLayers: 1},
			{Frame: 1, CellID: missing, Stride: 1, Payload: blk.Delta(1, int(top)), Layers: top, BaseLayers: 1},
			{Frame: 1, CellID: corrupt, Stride: 1, Payload: flipped, Layers: top},
		},
		{}, // a frame nothing was visible in: FrameComplete alone
		full(1),
		frame0, // back to back, and every block already in the tier
	}

	// play drives one receiver through the script and returns the frames
	// it recorded a Decode span for. Each run decodes through a tier of
	// its own, so the first sight of a block is a real decode in both.
	play := func(tracer *obs.Tracer, dec *codec.Decoder, cell func(*wire.CellData), complete func(uint32)) (decoded []int32) {
		dec.Cache = blockcache.CellCacheOn(blockcache.New("decode", 64<<20, metrics.NewRegistry()))
		for fi, cells := range script {
			for _, cd := range cells {
				cell(cd)
			}
			complete(uint32(fi))
		}
		for _, sp := range tracer.Snapshot() {
			if sp.Stage == obs.StageDecode {
				decoded = append(decoded, sp.Frame)
			}
		}
		return decoded
	}

	var want ClientStats
	refTracer := obs.New(256)
	ref := newRefReceiver(&want, 1, refTracer, true, true)
	wantDecoded := play(refTracer, &ref.dec, ref.cell, ref.complete)
	if len(wantDecoded) != 4 || want.DecodeErrors != 2 || want.DeltaCells != 1 || want.Points == 0 {
		t.Fatalf("the script does not exercise what it says: decode spans %v, stats %+v", wantDecoded, want)
	}

	defer par.SetWorkers(0)
	for _, width := range []int{1, 2, 8} {
		par.SetWorkers(width)
		var got ClientStats
		tracer := obs.New(256)
		rx := newReceiver(&got, 1, tracer, true, true)
		if cap(rx.slots) != width {
			t.Fatalf("pool width %d, want %d", cap(rx.slots), width)
		}
		decoded := play(tracer, &rx.dec, rx.cell, rx.complete)
		if got != want {
			t.Errorf("width %d: stats %+v, reference %+v", width, got, want)
		}
		if !slices.Equal(decoded, wantDecoded) {
			t.Errorf("width %d: Decode spans for frames %v, reference %v", width, decoded, wantDecoded)
		}
	}
}

// heldCellScript is what the abort and latency tests serve: one block of
// a store, and how many points it decodes to.
func heldCellScript(t *testing.T) (payload []byte, points int64) {
	t.Helper()
	store := testStore(t, 1, 4_000)
	var id cell.ID
	store.Frame(0).Occupied.ForEach(func(c cell.ID) { id = c })
	payload = store.LayeredBlock(0, id).Data
	var dec codec.Decoder
	dc, err := dec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	return payload, int64(len(dc.Points))
}

// holdDecode is the decode-cache stub that blocks one cell: it empties
// the process decode tier and occupies payload's flight in it, so every
// Decode of those bytes waits until release is called (and then gets the
// real cell).
func holdDecode(t *testing.T, payload []byte) (release func()) {
	t.Helper()
	blockcache.SetBudgetMB(0)
	blockcache.SetBudgetMB(-1)
	tier := blockcache.Cells()
	if tier == nil {
		t.Skip("the decode tier is disabled (VOLCAST_CACHE_MB=0): nothing to hold a decode in")
	}
	gate, holding, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tier.Cell(codec.HashBytes(payload), func() (*codec.DecodedCell, error) {
			close(holding)
			<-gate
			var dec codec.Decoder
			return dec.Decode(payload)
		})
	}()
	select {
	case <-holding:
	case <-time.After(5 * time.Second):
		t.Fatal("the decode tier never ran the holding compute")
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate); <-done }) }
	t.Cleanup(release) // a failing test must not leave its player waiting
	return release
}

// TestReceiverJoinsOnAbort ends a connection four ways while a decode of
// the open frame is still running — the link cut, a Bye, the context
// canceled, a pull frame timing out until the session ends. Each player
// must wait for that decode, return its points in ClientStats, and
// leave no goroutine behind.
func TestReceiverJoinsOnAbort(t *testing.T) {
	payload, points := heldCellScript(t)
	cd := &wire.CellData{CellID: 5, Stride: 1, Payload: payload}
	push := func(ctx context.Context, addr string) (ClientStats, error) {
		return RunClient(ctx, ClientConfig{
			Addr: addr, ID: 1, Duration: 5 * time.Second, Decode: true, IdleTimeout: 100 * time.Millisecond,
		})
	}
	pull := func(ctx context.Context, addr string) (ClientStats, error) {
		return RunPullClient(ctx, PullClientConfig{
			Addr: addr, ID: 2, Duration: 400 * time.Millisecond, Decode: true, FrameTimeout: 100 * time.Millisecond,
		})
	}
	// hang keeps the connection open and silent until the client leaves.
	hang := func(conn net.Conn) {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := wire.ReadMessage(conn); err != nil {
				return
			}
		}
	}
	for _, tc := range []struct {
		name string
		pull bool
		// after runs on the server once the cell is on the wire.
		after func(conn net.Conn, cancel context.CancelFunc)
		want  ClientStats
	}{
		{"connection cut mid-frame", false, func(net.Conn, context.CancelFunc) {},
			ClientStats{Cells: 1, FramesDropped: 1}},
		{"Bye mid-frame", false, func(conn net.Conn, _ context.CancelFunc) { wire.WriteMessage(conn, &wire.Bye{}) },
			ClientStats{Cells: 1}},
		{"ctx cancel", false, func(conn net.Conn, cancel context.CancelFunc) { cancel(); hang(conn) },
			ClientStats{Cells: 1}},
		{"pull frame timeout", true, func(conn net.Conn, _ context.CancelFunc) { hang(conn) },
			ClientStats{Cells: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := holdDecode(t, payload)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sent := make(chan struct{})
			addr := fakeServer(t, func(conn net.Conn) {
				if !welcomeFor(conn) {
					return
				}
				if tc.pull {
					if _, err := wire.ReadMessage(conn); err != nil { // the first SegmentRequest
						return
					}
				}
				if wire.WriteMessage(conn, cd) != nil {
					return
				}
				close(sent)
				tc.after(conn, cancel)
			})
			leak := leakcheck.Take() // the listener is up, nothing else is
			type result struct {
				stats ClientStats
				err   error
			}
			returned := make(chan result, 1)
			go func() {
				run := push
				if tc.pull {
					run = pull
				}
				stats, err := run(ctx, addr)
				returned <- result{stats, err}
			}()
			<-sent
			// Long enough for every scenario's exit path to have been
			// taken (idle timeout 100 ms, pull session 400 ms).
			select {
			case r := <-returned:
				t.Fatalf("returned %+v (%v) while a decode it handed off was still running", r.stats, r.err)
			case <-time.After(600 * time.Millisecond):
			}
			release()
			var r result
			select {
			case r = <-returned:
			case <-time.After(5 * time.Second):
				t.Fatal("never returned once the decode finished")
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			tc.want.Bytes, tc.want.Points = int64(len(payload)), points
			got := r.stats
			got.PosesSent, got.AvgFPS = 0, 0
			if tc.pull {
				// Every frame of the session timed out, however many fit.
				if got.FramesDropped == 0 {
					t.Error("no frame timed out: the scenario did not run")
				}
				got.FramesDropped = 0
			}
			if got != tc.want {
				t.Errorf("stats %+v, want %+v", got, tc.want)
			}
			cancel()
			leak.Check(t)
		})
	}
}

// TestFrameLatencySampledAfterJoin holds one cell of a frame in decode:
// the FrameComplete marker is read long before, yet no OnFrameLatency
// sample may arrive until that cell is decoded, and the sample covers
// the wait.
func TestFrameLatencySampledAfterJoin(t *testing.T) {
	payload, points := heldCellScript(t)
	release := holdDecode(t, payload)
	sent := make(chan struct{})
	fin := make(chan struct{})
	addr := fakeServer(t, func(conn net.Conn) {
		if !welcomeFor(conn) {
			return
		}
		if wire.WriteMessage(conn, &wire.CellData{CellID: 5, Stride: 1, Payload: payload}) != nil ||
			wire.WriteMessage(conn, &wire.FrameComplete{Cells: 1}) != nil {
			return
		}
		close(sent)
		<-fin
		wire.WriteMessage(conn, &wire.Bye{})
	})
	samples := make(chan time.Duration, 1)
	done := make(chan ClientStats, 1)
	go func() {
		stats, err := RunClient(context.Background(), ClientConfig{
			Addr: addr, ID: 1, Duration: 10 * time.Second, Decode: true,
			OnFrameLatency: func(d time.Duration) { samples <- d },
		})
		if err != nil {
			t.Error(err)
		}
		done <- stats
	}()
	<-sent
	const hold = 200 * time.Millisecond
	select {
	case d := <-samples:
		t.Fatalf("latency sample %v arrived while a cell of the frame was still decoding", d)
	case <-time.After(hold):
	}
	release()
	select {
	case d := <-samples:
		if d < hold/2 { // the cell was read a beat after the server's write returned
			t.Errorf("latency sample %v leaves out the %v the last cell took to decode", d, hold)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no latency sample after the held cell decoded")
	}
	close(fin)
	if stats := <-done; stats.Frames != 1 || stats.Points != points {
		t.Errorf("stats %+v, want 1 frame of %d points", stats, points)
	}
}
