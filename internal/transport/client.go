// Package transport is the player side of the runnable TCP streaming
// system: a trace-driven push client (RunClient) that streams poses and
// consumes what the server pushes, and a pull client (RunPullClient) that
// runs its own visibility pipeline and requests cells per frame. Both
// decode what they receive through one receiver and report QoE
// statistics. The serving side is the hub package; volplay and the
// examples are thin wrappers around this package, and the hub's load test
// (TestLoadSmokeMultiSession) drives a fleet of these clients.
//
// Fault model: the transport assumes the link misbehaves. Each
// connection has exactly one owning writer goroutine whose death tears
// the connection down (no zombie writers), both sides run a Ping/Pong
// heartbeat with idle timeouts so a silent peer becomes a prompt
// disconnect, clients reconnect with exponential backoff + jitter and
// resume via the normal Hello/Welcome exchange, and the hub's Shutdown
// drains each client's queued frames inside a bounded budget before
// closing. Every fault path increments a metrics counter so chaos runs
// are auditable.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/trace"
	"volcast/internal/wire"
)

// ClientConfig configures a trace-driven player.
type ClientConfig struct {
	// Addr is the server address.
	Addr string
	// ID identifies the client to the server.
	ID uint32
	// Name is a display label.
	Name string
	// Scene selects the hub session to join (0 = the default scene, which
	// is also what servers infer from older clients whose Hello predates
	// the scene field).
	Scene uint32
	// Trace drives the client's 6DoF pose stream; nil plays a static
	// pose at the origin.
	Trace *trace.Trace
	// Duration bounds the playback session.
	Duration time.Duration
	// Decode enables full decoding of received cells (costs CPU; off,
	// the client only accounts bytes).
	Decode bool
	// Layers advertises HelloFlagLayers: the client retains each cell's
	// layered prefix so the server can ship quality upgrades of unchanged
	// content as enhancement-only deltas, reassembled here.
	Layers bool
	// Tracer receives per-frame decode/present spans on the client's ID;
	// nil falls back to the process tracer.
	Tracer *obs.Tracer
	// Reconnect makes the client survive connection loss: it redials
	// with exponential backoff + jitter and resumes the session through
	// the normal Hello/Welcome exchange until the Duration elapses.
	Reconnect bool
	// BackoffBase is the first reconnect delay (0 = 50ms).
	BackoffBase time.Duration
	// BackoffMax caps the reconnect delay (0 = 2s).
	BackoffMax time.Duration
	// MaxReconnects bounds reconnect attempts (0 = unlimited within
	// Duration).
	MaxReconnects int
	// IdleTimeout declares the connection dead when nothing (frames,
	// pings) is readable for this long (0 = 5s). The server heartbeats
	// at 1s by default, so an idle link still carries pings.
	IdleTimeout time.Duration
	// Dial overrides the connection factory — the injection point for
	// faultnet wrappers in chaos tests (nil = plain TCP dial).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// OnFrameLatency, when set, receives each completed frame's burst
	// latency: first CellData of the frame read → its last cell decoded
	// (the FrameComplete marker, once every decode the frame handed off
	// has joined), as observed by the client. The load generator
	// aggregates these into p50/p95/p99. Called from the receive loop;
	// keep it cheap.
	OnFrameLatency func(time.Duration)
}

// ClientStats summarizes a playback session.
type ClientStats struct {
	// Frames is the number of completed frames received.
	Frames int
	// Cells / Bytes count received cell payloads.
	Cells int
	Bytes int64
	// MulticastBytes counts bytes the server marked as shared.
	MulticastBytes int64
	// DeltaCells / DeltaBytes count enhancement-only upgrade deliveries
	// (CellData with BaseLayers > 0) and their wire bytes — what the
	// layered path saved re-sending. DeltaFullBytes is the reassembled
	// size of those same cells, i.e. what a full re-send would have cost;
	// DeltaBytes < DeltaFullBytes is the layering win, byte for byte.
	DeltaCells     int
	DeltaBytes     int64
	DeltaFullBytes int64
	// Points counts decoded points (when Decode is set).
	Points int64
	// DecodeErrors counts corrupt blocks (must be 0 on a healthy link).
	DecodeErrors int
	// PosesSent counts outbound pose updates.
	PosesSent int
	// AvgFPS is Frames divided by the session wall time.
	AvgFPS float64
	// Reconnects counts reconnect attempts made after a connection loss
	// (only with ClientConfig.Reconnect).
	Reconnects int
	// HeartbeatMisses counts idle timeouts that declared a connection
	// dead client-side.
	HeartbeatMisses int
	// FramesDropped counts frames abandoned mid-burst (lost
	// FrameComplete, disconnect mid-frame, per-frame deadline).
	FramesDropped int
}

// RunClient connects, streams poses from the trace and consumes content
// until the duration elapses or the context is canceled. With
// cfg.Reconnect set, a dropped connection is re-dialed with exponential
// backoff + jitter and the session resumes through a fresh
// Hello/Welcome; stats accumulate across all attempts.
func RunClient(ctx context.Context, cfg ClientConfig) (ClientStats, error) {
	var stats ClientStats
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Second
	}
	sessionCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	// Jittered backoff from a per-client seed: deterministic given the
	// client ID, decorrelated across a fleet (no reconnect stampede).
	rng := rand.New(rand.NewSource(int64(cfg.ID)*2654435761 + 1))
	start := time.Now()

	backoff := cfg.BackoffBase
	attempts := 0
	var lastErr error
	for {
		connErr := runClientConn(sessionCtx, cfg, &stats, start)
		if sessionCtx.Err() != nil || ctx.Err() != nil {
			break // session over — a nil/EOF race at the deadline is not a failure
		}
		if connErr == nil {
			break // server said Bye / clean end
		}
		lastErr = connErr
		if !cfg.Reconnect {
			// First dial failing outright is still a hard error.
			if stats.Frames == 0 && stats.Cells == 0 {
				return stats, connErr
			}
			break
		}
		attempts++
		if cfg.MaxReconnects > 0 && attempts > cfg.MaxReconnects {
			return stats, fmt.Errorf("transport: reconnect budget (%d) exhausted: %w", cfg.MaxReconnects, connErr)
		}
		// Exponential backoff with full jitter, clamped to the session.
		delay := time.Duration(rng.Int63n(int64(backoff) + 1))
		metrics.Default().Counter("transport.client.backoffs").Inc()
		select {
		case <-sessionCtx.Done():
		case <-time.After(delay):
		}
		if backoff *= 2; backoff > cfg.BackoffMax {
			backoff = cfg.BackoffMax
		}
		if sessionCtx.Err() != nil {
			break
		}
		stats.Reconnects++
		metrics.Default().Counter("transport.client.reconnects").Inc()
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		stats.AvgFPS = float64(stats.Frames) / elapsed
	}
	if stats.Frames == 0 && stats.Cells == 0 && lastErr != nil && !cfg.Reconnect {
		return stats, lastErr
	}
	return stats, nil
}

// runClientConn runs one connection attempt: dial, handshake, then pump
// poses out and frames in until the session deadline or a connection
// fault. All writes flow through a single writer goroutine — the pose
// ticker and the reader (pong replies, final Bye) only enqueue, so two
// message frames can never interleave on the socket.
func runClientConn(sessionCtx context.Context, cfg ClientConfig, stats *ClientStats, sessionStart time.Time) error {
	var helloFlags uint8
	if cfg.Layers {
		helloFlags |= wire.HelloFlagLayers
	}
	// The first pose rides behind the Hello: the hub pushes a new scene's
	// frame 0 as soon as it reads one, and it reads the connection again
	// right after its Welcome, so the pose is already waiting there.
	first := tracePose(cfg.Trace, uint32(stats.PosesSent), time.Since(sessionStart).Seconds())
	conn, rd, _, err := join(sessionCtx, cfg.Dial, cfg.Addr,
		&wire.Hello{ClientID: cfg.ID, Name: cfg.Name, Scene: cfg.Scene, Flags: helloFlags}, &first)
	if err != nil {
		return err
	}
	defer conn.Close()
	stats.PosesSent++

	// The single owned writer. Closing the connection is its job: writer
	// exit (error or stop) severs the socket, which unblocks the reader.
	// Messages arrive pre-framed in pooled buffers and everything queued
	// at a wakeup coalesces into one vectored write; the writer owns one
	// reference per queued buffer and releases it after the write.
	out := make(chan *wire.Buffer, 64)
	release := func() {
		for {
			select {
			case b := <-out:
				b.Release()
			default:
				return
			}
		}
	}
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		defer conn.Close()
		defer release()
		batch := make([]*wire.Buffer, 0, 16)
		scratch := make([][]byte, 16)
		writeBatch := func(deadline time.Duration) bool {
			for i, b := range batch {
				scratch[i] = b.Bytes()
			}
			nb := net.Buffers(scratch[:len(batch)])
			conn.SetWriteDeadline(time.Now().Add(deadline))
			_, err := nb.WriteTo(conn)
			for i, b := range batch {
				scratch[i] = nil
				b.Release()
			}
			batch = batch[:0]
			return err == nil
		}
		for {
			select {
			case b := <-out:
				batch = append(batch, b)
			coalesce:
				for len(batch) < cap(batch) {
					select {
					case nb := <-out:
						batch = append(batch, nb)
					default:
						break coalesce
					}
				}
				if !writeBatch(5 * time.Second) {
					return
				}
			case <-stopWriter:
				// Flush anything already queued (the Bye), best effort.
				for {
					select {
					case b := <-out:
						batch = append(batch, b)
						if len(batch) < cap(batch) {
							continue
						}
						if !writeBatch(time.Second) {
							return
						}
					default:
						if len(batch) > 0 {
							writeBatch(time.Second)
						}
						return
					}
				}
			}
		}
	}()
	// enqueue frames into a pooled buffer and never blocks: a full queue
	// on a stalled link drops the message (poses are superseded by the
	// next one anyway).
	enqueue := func(m wire.Message) {
		b, err := wire.NewBuffer(m)
		if err != nil {
			return
		}
		select {
		case out <- b:
		default:
			b.Release()
		}
	}
	// What was enqueued after a dead writer's last drain is released once
	// it has exited; by then nothing enqueues any more.
	defer func() { close(stopWriter); <-writerDone; release() }()

	// Pose sender at the trace rate, clocked against the session start so
	// the viewport stays on-trace across reconnects. Its first pose goes
	// out at once, not a tick later: the one behind the Hello is as old as
	// the scene's build.
	hz := 30
	if cfg.Trace != nil && cfg.Trace.Hz > 0 {
		hz = cfg.Trace.Hz
	}
	poseStop := make(chan struct{})
	poseDone := make(chan struct{})
	go func() {
		defer close(poseDone)
		ticker := time.NewTicker(time.Second / time.Duration(hz))
		defer ticker.Stop()
		for {
			pu := tracePose(cfg.Trace, uint32(stats.PosesSent), time.Since(sessionStart).Seconds())
			enqueue(&pu)
			stats.PosesSent++
			select {
			case <-sessionCtx.Done():
				return
			case <-poseStop:
				return
			case <-ticker.C:
			}
		}
	}()
	defer func() { close(poseStop); <-poseDone }()

	rx := newReceiver(stats, int(cfg.ID), cfg.Tracer, cfg.Decode, cfg.Layers)
	rx.in = rd
	defer rx.join() // no decode outlives the connection, however it ends
	// frameStart anchors the burst latency (first cell read → last cell
	// decoded) reported through OnFrameLatency.
	inFrame := false
	var frameStart time.Time
	for {
		// Idle timeout bounds every read: a silent server (crash, stall,
		// blackhole) surfaces as a timeout, not an unbounded hang. The
		// session deadline still wins when nearer.
		until := time.Now().Add(cfg.IdleTimeout)
		sessionBounded := false
		if deadline, ok := sessionCtx.Deadline(); ok && deadline.Before(until) {
			until = deadline
			sessionBounded = true
		}
		conn.SetReadDeadline(until)
		msg, err := rd.Read()
		if err != nil {
			// The socket deadline fires at the session's wall-clock end a
			// beat before the ctx timer does — that timeout is the session
			// ending, not a silent link.
			if sessionCtx.Err() != nil || (sessionBounded && isTimeout(err)) {
				break // session over; not a connection fault
			}
			if inFrame {
				stats.FramesDropped++
			}
			if isTimeout(err) {
				stats.HeartbeatMisses++
				metrics.Default().Counter("transport.client.heartbeat.misses").Inc()
				return fmt.Errorf("transport: connection idle beyond %v", cfg.IdleTimeout)
			}
			return fmt.Errorf("transport: read: %w", err)
		}
		switch m := msg.(type) {
		case *wire.CellData:
			if !inFrame {
				frameStart = time.Now()
			}
			inFrame = true
			rx.cell(m)
		case *wire.FrameComplete:
			// complete joins the frame's decodes; sampled before it, the
			// latency would leave decode out.
			rx.complete(m.Frame)
			if cfg.OnFrameLatency != nil && inFrame && !frameStart.IsZero() {
				cfg.OnFrameLatency(time.Since(frameStart))
			}
			frameStart = time.Time{}
			inFrame = false
		case *wire.Ping:
			enqueue(&wire.Pong{Seq: m.Seq, T: m.T})
		case *wire.Bye:
			return nil // server finished the session gracefully
		case *wire.Adapt:
			// Quality change acknowledged implicitly.
		}
		if sessionCtx.Err() != nil {
			break
		}
	}

	// Graceful goodbye through the writer (flushed by stopWriter).
	enqueue(&wire.Bye{})
	return nil
}

// tracePose is the PoseUpdate a push client sends t seconds into its
// session: the trace's pose then, or a static pose at the origin.
func tracePose(tr *trace.Trace, seq uint32, t float64) wire.PoseUpdate {
	pu := wire.PoseUpdate{Seq: seq, T: t}
	if tr != nil {
		pu.Pose = tr.PoseAtTime(t)
	} else {
		pu.Pose.Rot = geom.QuatIdent()
	}
	return pu
}

// join dials addr (dial nil = plain TCP), sends hello and waits for the
// server's Welcome — the handshake both players open every connection
// with. A non-nil pose goes out in the same write as the hello, without
// waiting for the Welcome. The caller owns the returned connection and
// reads everything after the Welcome through the returned Reader, which
// may already hold the first bytes the server sent after it.
func join(ctx context.Context, dial func(context.Context, string) (net.Conn, error), addr string, hello *wire.Hello, pose *wire.PoseUpdate) (net.Conn, *wire.Reader, *wire.Welcome, error) {
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: 5 * time.Second}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("transport: dial: %w", err)
	}
	b, err := wire.AppendMessage(nil, hello)
	if err == nil && pose != nil {
		b, err = wire.AppendMessage(b, pose)
	}
	if err == nil {
		_, err = conn.Write(b)
	}
	if err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("transport: hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := wire.NewReader(conn)
	msg, err := rd.Read()
	if err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("transport: welcome: %w", err)
	}
	welcome, ok := msg.(*wire.Welcome)
	if !ok {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("transport: expected Welcome, got %v", msg.Type())
	}
	return conn, rd, welcome, nil
}

// heldCell is one retained layered prefix: the bytes, their layer count,
// and the content token a pull request attaches so the server can verify
// the prefix before answering with an enhancement-only delta.
type heldCell struct {
	data   []byte
	layers uint8
	token  uint64
}

// receiver is the client half of the delivery path, shared by the push
// and pull players: it accounts every CellData, reassembles
// enhancement-only deltas onto the retained prefixes, decodes through
// the shared content-addressed cache (temporally static cells repeat
// byte-identical blocks across frames and decode only once) and closes
// each frame out with its Decode and Present spans.
//
// It is a pipeline (DESIGN.md §17): cell runs on the read loop and hands
// each payload to one of at most par.Workers() concurrent decodes, so
// the socket keeps draining while cells decode; complete is the join.
// Everything but the fields under mu belongs to the read loop.
type receiver struct {
	stats  *ClientStats
	id     int
	tracer *obs.Tracer
	decode bool
	dec    codec.Decoder
	// slots bounds the decodes in flight; the hand-off blocks on it, so a
	// viewer that cannot keep up stops draining the socket. wg counts them.
	slots chan struct{}
	wg    sync.WaitGroup
	// What the decodes produce, folded into stats at the join. decEnd is
	// when the latest of them finished.
	mu     sync.Mutex
	points int64
	errs   int
	decEnd time.Time
	// held retains each cell's layered prefix (nil unless the client
	// advertised HelloFlagLayers). Connection-scoped, matching the
	// server's per-subscriber delivery memory: a reconnect starts both
	// sides from scratch.
	held map[uint32]*heldCell
	// in is the Reader the cells come from; a payload it does not own is
	// copied before the hand-off (nil: every payload is).
	in *wire.Reader
	// A frame's decode is one span, first hand-off → last cell decoded,
	// recorded at FrameComplete; the gap between consecutive
	// FrameCompletes is the client's presentation interval.
	decStart, lastComplete time.Time
}

func newReceiver(stats *ClientStats, id int, tracer *obs.Tracer, decode, layers bool) *receiver {
	if tracer == nil {
		tracer = obs.Default()
	}
	r := &receiver{
		stats: stats, id: id, tracer: tracer, decode: decode,
		dec:   codec.Decoder{Cache: blockcache.Cells()},
		slots: make(chan struct{}, par.Workers()),
	}
	if layers {
		r.held = map[uint32]*heldCell{}
	}
	return r
}

// cell consumes one CellData.
func (r *receiver) cell(m *wire.CellData) {
	st := r.stats
	st.Cells++
	st.Bytes += int64(len(m.Payload))
	if m.Multicast {
		st.MulticastBytes += int64(len(m.Payload))
	}
	// An in-buffer payload aliases the read loop's wire.Reader until its
	// next Read; owned marks bytes nothing writes again.
	payload, owned := m.Payload, r.in != nil && r.in.Owned()
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
		owned = true
		st.DeltaCells++
		st.DeltaBytes += int64(len(m.Payload))
		st.DeltaFullBytes += int64(len(payload))
	}
	if r.held != nil && m.Layers > 0 {
		cp := bytes.Clone(payload)
		r.held[m.CellID] = &heldCell{data: cp, layers: m.Layers, token: codec.HashBytes(cp)[0]}
		payload, owned = cp, true
	}
	if !r.decode {
		return
	}
	// The decode reads payload from another goroutine while the read loop
	// refills the Reader's buffer: it gets bytes nothing writes again (an
	// owned body or one of the copies above) or a copy of its own.
	if !owned {
		payload = bytes.Clone(payload)
	}
	if r.decStart.IsZero() {
		r.decStart = time.Now()
	}
	r.slots <- struct{}{}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		dc, err := r.dec.Decode(payload)
		r.mu.Lock()
		if err != nil {
			r.errs++
		} else {
			r.points += int64(len(dc.Points))
		}
		r.decEnd = time.Now()
		r.mu.Unlock()
		<-r.slots
	}()
}

// join waits for every decode handed off so far and folds what they
// produced into stats; after it nothing of the receiver is running.
func (r *receiver) join() {
	r.wg.Wait()
	r.stats.Points += r.points
	r.stats.DecodeErrors += r.errs
	r.points, r.errs = 0, 0
}

// complete closes out a frame at its FrameComplete marker: the join,
// then the frame's spans.
func (r *receiver) complete(frame uint32) {
	r.join()
	r.stats.Frames++
	if !r.decStart.IsZero() {
		r.tracer.Record(int(frame), r.id, obs.StageDecode, r.decStart, r.decEnd.Sub(r.decStart))
	}
	r.decStart = time.Time{}
	now := time.Now()
	if !r.lastComplete.IsZero() {
		r.tracer.Record(int(frame), r.id, obs.StagePresent, r.lastComplete, now.Sub(r.lastComplete))
	}
	r.lastComplete = now
}

func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}
