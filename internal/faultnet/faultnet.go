// Package faultnet injects deterministic network faults into net.Conn
// and net.Listener values so transport-layer failure handling can be
// exercised reproducibly. Every fault a connection will experience —
// added latency, a bandwidth cap, short (partial) writes, a mid-stream
// reset, periodic read stalls — is decided up front as a Plan drawn from
// a seeded RNG keyed only by (Config.Seed, connection index). The same
// seed therefore produces the identical fault schedule on every run,
// independent of goroutine scheduling or wall-clock timing, which is what
// makes chaos tests assertable: a failure found once reproduces
// byte-for-byte.
//
// The wrapper is transport-agnostic: it sits between the TCP socket and
// the wire codec, so the layers above see exactly the errors a flaky
// mmWave link or a dying client would produce — write errors mid-frame,
// reads that hang, connections that vanish after N bytes — without any
// real packet loss.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Errors injected by the wrapper. They satisfy net.Error so transport
// code exercises the same branches as for real socket failures.
var (
	// ErrInjectedReset reports a scheduled mid-stream connection reset.
	ErrInjectedReset = errors.New("faultnet: injected connection reset")
	// ErrShortWrite reports a scheduled partial write: a prefix of the
	// buffer reached the peer, then the write "failed". The stream is
	// desynchronized from the caller's perspective, exactly like a write
	// interrupted by a link outage.
	ErrShortWrite = errors.New("faultnet: injected short write")
	// ErrAcceptFault is the one-shot transient accept failure.
	ErrAcceptFault = errors.New("faultnet: injected accept failure")
)

// opErr wraps an injected error as a net.Error (non-timeout, temporary
// only for accept faults).
type opErr struct {
	err  error
	temp bool
}

func (e *opErr) Error() string   { return e.err.Error() }
func (e *opErr) Unwrap() error   { return e.err }
func (e *opErr) Timeout() bool   { return false }
func (e *opErr) Temporary() bool { return e.temp }

// Config describes the fault distribution connections are drawn from.
// The zero value injects nothing.
type Config struct {
	// Seed keys the per-connection RNG. Two runs with the same Seed and
	// the same connection arrival order draw identical Plans.
	Seed int64
	// Latency is added to every read and write operation.
	Latency time.Duration
	// BandwidthBps caps the per-connection throughput in each direction
	// (0 = no cap). Pacing is enforced by sleeping between chunks of a
	// write and after each read, so a client-side wrap also throttles the
	// downlink via TCP backpressure.
	BandwidthBps int64
	// ResetProb is the per-connection probability of a scheduled
	// mid-stream reset.
	ResetProb float64
	// ResetAfterBytes is the [min,max) byte range (total bytes moved in
	// either direction) after which a scheduled reset fires. Ignored
	// unless the connection drew a reset.
	ResetAfterBytes [2]int64
	// ShortWriteProb is the per-connection probability of a scheduled
	// short write; when drawn, one write (the ShortWriteAtWrite-th)
	// delivers only a prefix and then fails.
	ShortWriteProb float64
	// ShortWriteAtWrite is the [min,max) range for which write op (1-based)
	// the short write hits. Defaults to [1,50).
	ShortWriteAtWrite [2]int64
	// StallEvery stalls every Nth read for StallDur (0 = never).
	StallEvery int
	// StallDur is the injected read-stall duration.
	StallDur time.Duration
	// AcceptFailEvery makes every Nth Accept fail once with a temporary
	// error (0 = never). The listener keeps working afterwards.
	AcceptFailEvery int
}

// Plan is the concrete fault schedule one connection drew. It is a pure
// function of (Config, connection index): see PlanFor.
type Plan struct {
	// Conn is the 0-based connection index on the listener/dialer.
	Conn int
	// Latency, BandwidthBps, StallEvery, StallDur mirror the Config.
	Latency      time.Duration
	BandwidthBps int64
	StallEvery   int
	StallDur     time.Duration
	// ResetAt is the total traffic byte count after which the connection
	// resets (0 = never).
	ResetAt int64
	// ShortWriteAt is the 1-based write op that will be cut short
	// (0 = never).
	ShortWriteAt int64
}

// String renders the schedule compactly; equal schedules render equal.
func (p Plan) String() string {
	return fmt.Sprintf("conn=%d lat=%v bw=%d resetAt=%d shortWriteAt=%d stallEvery=%d stallDur=%v",
		p.Conn, p.Latency, p.BandwidthBps, p.ResetAt, p.ShortWriteAt, p.StallEvery, p.StallDur)
}

// PlanFor derives the fault schedule for the i-th connection under cfg.
// It is deterministic: the RNG is seeded from (cfg.Seed, i) alone and the
// draws happen in a fixed order, so the same inputs always yield the same
// Plan — the property the chaos soak asserts.
func PlanFor(cfg Config, i int) Plan {
	// splitmix-style seed derivation keeps per-connection streams
	// decorrelated even for adjacent indices.
	s := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	s ^= s >> 31
	rng := rand.New(rand.NewSource(int64(s)))
	p := Plan{
		Conn:         i,
		Latency:      cfg.Latency,
		BandwidthBps: cfg.BandwidthBps,
		StallEvery:   cfg.StallEvery,
		StallDur:     cfg.StallDur,
	}
	// Fixed draw order: reset coin, reset offset, short-write coin,
	// short-write op. Every draw happens regardless of the coin so the
	// stream position stays aligned across config-probability changes.
	resetCoin := rng.Float64()
	resetOff := drawRange(rng, cfg.ResetAfterBytes, [2]int64{32 << 10, 1 << 20})
	shortCoin := rng.Float64()
	shortAt := drawRange(rng, cfg.ShortWriteAtWrite, [2]int64{1, 50})
	if resetCoin < cfg.ResetProb {
		p.ResetAt = resetOff
	}
	if shortCoin < cfg.ShortWriteProb {
		p.ShortWriteAt = shortAt
	}
	return p
}

// drawRange draws uniformly from [r[0], r[1]), falling back to def when
// the range is empty.
func drawRange(rng *rand.Rand, r, def [2]int64) int64 {
	if r[1] <= r[0] {
		r = def
	}
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + rng.Int63n(r[1]-r[0])
}

// Stats counts injected faults across a listener or dialer.
type Stats struct {
	Resets      atomic.Int64
	ShortWrites atomic.Int64
	Stalls      atomic.Int64
	AcceptFails atomic.Int64
}

// Listener wraps a net.Listener, applying a Plan to every accepted
// connection and optionally failing every Nth accept once.
type Listener struct {
	net.Listener
	cfg Config

	mu      sync.Mutex
	accepts int
	plans   []Plan

	// Stats counts faults injected so far.
	Stats Stats
}

// NewListener wraps ln with the fault config.
func NewListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg}
}

// Accept waits for the next connection and wraps it with its Plan. Every
// cfg.AcceptFailEvery-th accept fails once with a temporary net.Error
// before any connection is consumed — the caller must retry, exactly as
// with a transient EMFILE on a real listener.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.accepts++
	n := l.accepts
	l.mu.Unlock()
	if l.cfg.AcceptFailEvery > 0 && n%l.cfg.AcceptFailEvery == 0 {
		l.Stats.AcceptFails.Add(1)
		return nil, &opErr{err: ErrAcceptFault, temp: true}
	}
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	idx := len(l.plans)
	plan := PlanFor(l.cfg, idx)
	l.plans = append(l.plans, plan)
	l.mu.Unlock()
	return wrap(conn, plan, &l.Stats), nil
}

// Plans returns the fault schedules of every accepted connection so far,
// in accept order. Comparing this log across runs with the same seed is
// the reproducibility check.
//
// Kept: the fault and chaos tests compare and count these schedules.
func (l *Listener) Plans() []Plan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Plan(nil), l.plans...)
}

// Conn applies one Plan to an underlying connection. Reads and writes
// account traffic toward the reset offset; once crossed, the underlying
// connection is closed and both directions fail with ErrInjectedReset.
type Conn struct {
	net.Conn
	plan  Plan
	stats *Stats

	mu     sync.Mutex
	moved  int64 // total bytes in either direction
	writes int64 // write op count
	reads  int64 // read op count
	reset  bool
}

// WrapConn applies plan to conn with no shared stats.
//
// Kept: the fault tests and the transport's adaptation test wrap one
// connection with a chosen Plan through it.
func WrapConn(conn net.Conn, plan Plan) *Conn { return wrap(conn, plan, &Stats{}) }

func wrap(conn net.Conn, plan Plan, stats *Stats) *Conn {
	return &Conn{Conn: conn, plan: plan, stats: stats}
}

// tripReset marks the connection reset and severs the underlying socket.
func (c *Conn) tripReset() error {
	// Called with c.mu held.
	if !c.reset {
		c.reset = true
		c.stats.Resets.Add(1)
		c.Conn.Close()
	}
	return &opErr{err: ErrInjectedReset}
}

// Write paces, truncates, or resets according to the plan, then forwards
// to the underlying connection in chunks.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, &opErr{err: ErrInjectedReset}
	}
	c.writes++
	writeOp := c.writes
	short := c.plan.ShortWriteAt > 0 && writeOp == c.plan.ShortWriteAt
	c.mu.Unlock()

	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	limit := len(p)
	if short && limit > 1 {
		limit = limit / 2 // deliver a prefix, then fail
	}
	written := 0
	const chunk = 4 << 10
	for written < limit {
		n := limit - written
		if n > chunk {
			n = chunk
		}
		// Reset check per chunk: a mid-frame reset cuts a large burst in
		// half, which is the interesting case for the transport writer.
		c.mu.Lock()
		if c.plan.ResetAt > 0 && c.moved+int64(n) > c.plan.ResetAt {
			err := c.tripReset()
			c.mu.Unlock()
			return written, err
		}
		c.mu.Unlock()
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		c.account(int64(m))
		if err != nil {
			return written, err
		}
		c.pace(int64(m))
	}
	if short {
		c.stats.ShortWrites.Add(1)
		return written, &opErr{err: ErrShortWrite}
	}
	return written, nil
}

// Read stalls, resets, and delays according to the plan.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, &opErr{err: ErrInjectedReset}
	}
	c.reads++
	stall := c.plan.StallEvery > 0 && c.reads%int64(c.plan.StallEvery) == 0
	c.mu.Unlock()

	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	if stall && c.plan.StallDur > 0 {
		c.stats.Stalls.Add(1)
		time.Sleep(c.plan.StallDur)
	}
	n, err := c.Conn.Read(p)
	c.account(int64(n))
	c.mu.Lock()
	if err == nil && c.plan.ResetAt > 0 && c.moved > c.plan.ResetAt {
		err = c.tripReset()
		c.mu.Unlock()
		return n, err
	}
	c.mu.Unlock()
	// Pace reads too: a capped link is capped in both directions, and the
	// client-side wrap relies on slow reads (plus a small kernel receive
	// buffer) to push backpressure onto the sender.
	c.pace(int64(n))
	return n, err
}

// account adds moved bytes toward the reset offset.
func (c *Conn) account(n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.moved += n
	c.mu.Unlock()
}

// pace sleeps long enough to keep the connection under the bandwidth cap.
func (c *Conn) pace(n int64) {
	if c.plan.BandwidthBps <= 0 || n <= 0 {
		return
	}
	time.Sleep(time.Duration(n * int64(time.Second) / c.plan.BandwidthBps))
}
