// Package hub is the multi-tenant session manager: one process hosts N
// concurrent sessions (scenes), routes each connecting client to its
// session via the Hello handshake's scene field, and owns per-session
// lifecycle — a session is created on the first join (its content store
// built through the cross-session shared encode tier), drained and reaped
// after the last leave, and every session is drained on shutdown.
//
// The send path is a per-session fan-out tree: each frame's blocks are
// encoded once (the store), serialized once per (cell, stride) into an
// immutable buffer, and the same buffer is enqueued to every subscriber's
// writer — no per-client serialization, no copies. Buffers handed to
// enqueue are read-only forever after; that immutability rule is what
// makes the zero-copy fan-out race-free.
//
// Connection-level semantics are inherited from internal/transport's
// hardening: exactly one owning writer per connection, Ping/Pong
// heartbeats with idle timeouts, a slow-client drop, and graceful drain
// inside a bounded budget; density is abr's decision (DESIGN.md §19).
// Conn-level fault counters keep their transport.* names; session
// lifecycle and per-session counters live under hub.*.
package hub

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"volcast/internal/abr"
	"volcast/internal/blockcache"
	"volcast/internal/codec"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// Config configures a session hub.
type Config struct {
	// NewStore builds a scene's content on its first join. The blocks
	// argument is the scene's labeled view of the hub-wide shared encode
	// tier; wiring it into the scene's encoder (enc.Cached(blocks)) is
	// what makes overlapping content across scenes encode once. It is nil
	// when caching is disabled. Required.
	NewStore func(scene uint32, blocks codec.BlockCache) (*vivo.Store, error)
	// EncodeTier overrides the shared cross-session encode cache (nil =
	// the process-wide tier from blockcache.EncodeTier, which follows the
	// single SetBudgetMB budget).
	EncodeTier *blockcache.Cache
	// Vanilla disables the visibility optimizations (whole frames).
	Vanilla bool
	// FPS overrides every session's content frame rate (0 = store rate).
	FPS int
	// Logf receives hub diagnostics (nil = log.Printf).
	Logf func(format string, args ...any)
	// Trace receives per-frame spans; the span user axis is the hub-wide
	// subscriber id (see SubscriberLabel). Nil falls back to the process
	// tracer at construction time.
	Trace *obs.Tracer
	// Metrics receives fault/lifecycle counters (nil = metrics.Default()).
	Metrics *metrics.Registry
	// HeartbeatEvery is the server Ping interval (0 = 1s, <0 disables).
	HeartbeatEvery time.Duration
	// IdleTimeout closes a connection that produced no readable traffic
	// (poses, requests, pongs) for this long (0 = 4×HeartbeatEvery).
	IdleTimeout time.Duration
	// DrainTimeout bounds the graceful drain in Shutdown (0 = 2s).
	DrainTimeout time.Duration
	// WriteTimeout bounds one socket write (0 = 10s).
	WriteTimeout time.Duration
	// QueueDepth is each subscriber's outbound queue capacity (0 = 4096).
	QueueDepth int
	// SlowClientFrames drops a subscriber whose queue stayed too full to
	// accept even FrameComplete markers for this many consecutive frames
	// (0 = 120, <0 disables).
	SlowClientFrames int
	// ReapAfter is the grace period before an empty session (last client
	// left) is drained and reaped; its store is rebuilt on the next join,
	// mostly from the shared encode tier (0 = 10s, <0 never reaps).
	ReapAfter time.Duration
	// MaxSessions bounds concurrently hosted sessions; joins beyond it
	// are rejected during the handshake (0 = 1024).
	MaxSessions int
	// Events receives structured lifecycle events — join, leave,
	// reconnect, reap, slow-client drop — alongside whatever the SLO
	// engine emits (nil = no event log).
	Events *obs.EventLog
	// SLO evaluates each session's windowed readout every SLOEvery and
	// drives breach/recovery transitions (nil = no SLO plane).
	SLO *obs.SLOEngine
	// SLOEvery is the SLO evaluation interval (0 = 1s, <0 disables).
	SLOEvery time.Duration
}

// Hub hosts many concurrent sessions behind one listener.
type Hub struct {
	cfg  Config
	tier *blockcache.Cache

	mu       sync.Mutex
	sessions map[uint32]*session
	building map[uint32]*buildFlight
	// pending holds accepted connections still in the handshake, so
	// Shutdown can sever them without waiting for handshake deadlines.
	pending map[net.Conn]struct{}
	nextSub uint32
	// subLabels maps connected subscribers' ids (the tracer's user axis)
	// to "scene/client" labels for /qoe readability with many sessions.
	subLabels map[uint32]string
	// seenClients remembers the (scene, client id) pairs registered since
	// the scene was built (the reaper drops them with it), so a repeat
	// registration is reported as a reconnect event rather than a join.
	seenClients map[uint64]struct{}

	wg       sync.WaitGroup
	ctx      context.Context
	cancel   context.CancelFunc
	listener net.Listener

	// Lifecycle counters, resolved once.
	cConnects, cDisconnects   *metrics.Counter
	cRejects, cAcceptRetries  *metrics.Counter
	cCreated, cReaped, cBuilt *metrics.Counter
	// Hot-path counters, resolved once: enqueue and the write loop run
	// per frame per subscriber, so they must not pay a registry lookup
	// (TestHotPathAllocs counts enqueue's allocations).
	cEnqueueDrops, cWriterDeaths *metrics.Counter
}

// buildFlight tracks one in-progress session build so concurrent first
// joins of the same scene wait for it instead of building twice.
type buildFlight struct {
	done chan struct{}
	err  error
}

// errShutdown rejects joins that race the hub teardown.
var errShutdown = errors.New("hub: shutting down")

// New validates the config and returns a hub.
func New(cfg Config) (*Hub, error) {
	if cfg.NewStore == nil {
		return nil, errors.New("hub: config needs a NewStore factory")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Trace == nil {
		cfg.Trace = obs.Default()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default()
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.IdleTimeout == 0 {
		if cfg.HeartbeatEvery > 0 {
			cfg.IdleTimeout = 4 * cfg.HeartbeatEvery
		} else {
			cfg.IdleTimeout = 4 * time.Second
		}
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.SlowClientFrames == 0 {
		cfg.SlowClientFrames = 120
	}
	if cfg.ReapAfter == 0 {
		cfg.ReapAfter = 10 * time.Second
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	tier := cfg.EncodeTier
	if tier == nil {
		tier = blockcache.EncodeTier()
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &Hub{
		cfg:         cfg,
		tier:        tier,
		sessions:    map[uint32]*session{},
		building:    map[uint32]*buildFlight{},
		pending:     map[net.Conn]struct{}{},
		subLabels:   map[uint32]string{},
		seenClients: map[uint64]struct{}{},
		ctx:         ctx,
		cancel:      cancel,
	}
	h.cConnects = cfg.Metrics.Counter("transport.connects")
	h.cDisconnects = cfg.Metrics.Counter("transport.disconnects")
	h.cRejects = cfg.Metrics.Counter("transport.rejects.shutdown")
	h.cAcceptRetries = cfg.Metrics.Counter("transport.accept.retries")
	h.cCreated = cfg.Metrics.Counter("hub.sessions.created")
	h.cReaped = cfg.Metrics.Counter("hub.sessions.reaped")
	h.cBuilt = cfg.Metrics.Counter("hub.sessions.store_builds")
	h.cEnqueueDrops = cfg.Metrics.Counter("transport.drops.enqueue")
	h.cWriterDeaths = cfg.Metrics.Counter("transport.writer.deaths")
	return h, nil
}

// NumSessions returns the number of live sessions.
func (h *Hub) NumSessions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// NumClients returns the number of registered (post-handshake) clients
// across every session.
func (h *Hub) NumClients() int {
	h.mu.Lock()
	sessions := make([]*session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	n := 0
	for _, s := range sessions {
		n += s.numSubs()
	}
	return n
}

// SubscriberLabel resolves a tracer user id to its "scene<N>/<name>"
// label, or "" for unknown users — the obs debug endpoint's UserLabel
// hook, which keeps /qoe readable when many sessions share one tracer.
func (h *Hub) SubscriberLabel(user int) string {
	if user < 0 {
		return ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.subLabels[uint32(user)]
}

// Serve accepts connections on ln until Shutdown. It owns ln. Transient
// accept failures (EMFILE-class, injected chaos faults) are retried with
// capped backoff instead of killing the hub.
func (h *Hub) Serve(ln net.Listener) error {
	h.mu.Lock()
	h.listener = ln
	h.mu.Unlock()
	h.wg.Add(1)
	go h.reaper()
	h.wg.Add(1)
	go h.sloLoop()
	var retryDelay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-h.ctx.Done():
				return nil
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				retryDelay = min(max(2*retryDelay, 5*time.Millisecond), time.Second)
				h.cAcceptRetries.Inc()
				h.cfg.Logf("hub: accept: %v (retrying in %v)", err, retryDelay)
				select {
				case <-time.After(retryDelay):
				case <-h.ctx.Done():
					return nil
				}
				continue
			}
			return fmt.Errorf("hub: accept: %w", err)
		}
		retryDelay = 0
		h.wg.Add(1)
		go h.handle(conn)
	}
}

// ListenAndServe listens on addr and serves. The returned address is the
// bound address (useful with ":0").
func (h *Hub) ListenAndServe(addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("hub: listen: %w", err)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return h.Serve(ln)
}

// Shutdown stops accepting, gracefully drains every subscriber of every
// session and waits for workers. Draining means each connection's writer
// flushes the frames already queued (ending with a Bye) inside the
// DrainTimeout budget; stragglers are force-closed when the budget
// expires. Connections still mid-handshake are severed immediately.
func (h *Hub) Shutdown() {
	drained := h.cfg.Metrics.Histogram("transport.shutdown.drain", nil).TimeMillis()
	// Cancel under h.mu: handle() checks h.ctx under the same lock before
	// registering, so no subscriber can slip into a session after the
	// snapshot below (the zombie-registration race).
	h.mu.Lock()
	h.cancel()
	ln := h.listener
	sessions := make([]*session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	pending := make([]net.Conn, 0, len(h.pending))
	for conn := range h.pending {
		pending = append(pending, conn)
	}
	h.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, conn := range pending {
		conn.Close()
	}
	for _, s := range sessions {
		for _, c := range s.snapshotSubs() {
			c.beginDrain()
		}
	}
	// Force-close whatever is still connected when the drain budget
	// expires (covers both slow drains and clients that connected between
	// the snapshot and the listener close — they were rejected at
	// registration, but their sockets may still be open).
	forceTimer := time.AfterFunc(h.cfg.DrainTimeout, func() {
		h.mu.Lock()
		live := make([]*session, 0, len(h.sessions))
		for _, s := range h.sessions {
			live = append(live, s)
		}
		conns := make([]net.Conn, 0, len(h.pending))
		for conn := range h.pending {
			conns = append(conns, conn)
		}
		h.mu.Unlock()
		for _, s := range live {
			for _, c := range s.snapshotSubs() {
				c.close()
			}
		}
		for _, conn := range conns {
			conn.Close()
		}
	})
	h.wg.Wait()
	forceTimer.Stop()
	drained()
}

// reaper drains and reaps sessions that have been empty past the
// ReapAfter grace, returning their memory; the next join of the scene
// rebuilds the store, mostly from the shared encode tier.
func (h *Hub) reaper() {
	defer h.wg.Done()
	if h.cfg.ReapAfter < 0 {
		return
	}
	ticker := time.NewTicker(min(max(h.cfg.ReapAfter/4, 50*time.Millisecond), time.Second))
	defer ticker.Stop()
	for {
		select {
		case <-h.ctx.Done():
			return
		case <-ticker.C:
		}
		h.mu.Lock()
		var idle []*session
		for _, s := range h.sessions {
			if s.emptyFor(h.cfg.ReapAfter) {
				idle = append(idle, s)
			}
		}
		h.mu.Unlock()
		// A store still building keeps adding to the scene's encode-tier
		// counters: let it finish before they are forgotten.
		for _, s := range idle {
			s.store.Wait()
		}
		h.mu.Lock()
		var reap []*session
		for _, s := range idle {
			if h.sessions[s.scene] == s && s.emptyFor(h.cfg.ReapAfter) && s.markClosed() {
				h.retireLocked(s)
				reap = append(reap, s)
			}
		}
		h.mu.Unlock()
		for _, s := range reap {
			s.cancel()
			<-s.done // frameLoop exits promptly on a canceled ctx
			h.cReaped.Inc()
			h.cfg.SLO.Forget(s.label)
			h.cfg.Events.Append(obs.EventReap, s.label, 0,
				fmt.Sprintf("idle for %v", h.cfg.ReapAfter))
			h.cfg.Logf("hub: scene %d reaped after %v idle (%d sessions live)",
				s.scene, h.cfg.ReapAfter, h.NumSessions())
		}
	}
}

// retireLocked takes s out of the scene table, and with it what is keyed
// by the scene, in one h.mu hold: a rejoin cannot yet have rebuilt the
// label. The caller holds h.mu and has claimed s (s.closed).
func (h *Hub) retireLocked(s *session) {
	delete(h.sessions, s.scene)
	for key := range h.seenClients {
		if uint32(key>>32) == s.scene {
			delete(h.seenClients, key)
		}
	}
	h.cfg.Metrics.Forget("hub.session." + s.label + ".")
	h.tier.ForgetSession(s.label)
}

// sloLoop periodically feeds every session's windowed readout — the row
// /sessions shows — to the SLO engine; breach/recovery transitions
// (events, flight captures) happen inside Evaluate.
func (h *Hub) sloLoop() {
	defer h.wg.Done()
	if h.cfg.SLO == nil || h.cfg.SLOEvery < 0 {
		return
	}
	every := h.cfg.SLOEvery
	if every == 0 {
		every = time.Second
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-h.ctx.Done():
			return
		case <-ticker.C:
		}
		for _, si := range h.SessionInfos() {
			h.cfg.SLO.Evaluate(si.Scene, obs.SLOWindow{
				P99MS:  si.P99MS,
				Frames: si.WindowFrames,
				Misses: si.WindowMisses,
			})
		}
	}
}

// SessionInfos returns the live per-session table — subscribers, frames,
// windowed latency quantiles, encode-cache hit rate, SLO state — sorted
// by scene. It is the obs debug endpoint's Sessions hook.
func (h *Hub) SessionInfos() []obs.SessionInfo {
	h.mu.Lock()
	sessions := make([]*session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].scene < sessions[j].scene })
	out := make([]obs.SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		st := s.wFrameMS.Stats()
		hits, misses := h.tier.SessionStats(s.label)
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		slo := h.cfg.SLO.State(s.label)
		out = append(out, obs.SessionInfo{
			Scene:        s.label,
			Subscribers:  s.numSubs(),
			Frames:       s.cFrames.Value(),
			WindowFrames: st.Count,
			WindowMisses: s.wMisses.Value(),
			P50MS:        st.P50,
			P95MS:        st.P95,
			P99MS:        st.P99,
			CacheHitRate: rate,
			SLOBreached:  slo.Breached,
			SLOBreaches:  slo.Breaches,
		})
	}
	return out
}

// joinSession returns the live session for scene, creating it (and
// building its store through the shared encode tier) on first join.
// Concurrent first joins of one scene share a single build.
func (h *Hub) joinSession(scene uint32) (*session, error) {
	for {
		h.mu.Lock()
		if h.ctx.Err() != nil {
			h.mu.Unlock()
			return nil, errShutdown
		}
		if s, ok := h.sessions[scene]; ok {
			h.mu.Unlock()
			return s, nil
		}
		if fl, ok := h.building[scene]; ok {
			h.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			continue // registered (or already reaped): look again
		}
		if len(h.sessions)+len(h.building) >= h.cfg.MaxSessions {
			h.mu.Unlock()
			return nil, fmt.Errorf("hub: session limit (%d) reached", h.cfg.MaxSessions)
		}
		fl := &buildFlight{done: make(chan struct{})}
		h.building[scene] = fl
		h.mu.Unlock()

		s, err := h.buildSession(scene)
		h.mu.Lock()
		delete(h.building, scene)
		started := false
		if err == nil {
			if h.ctx.Err() != nil {
				err = errShutdown
			} else {
				h.sessions[scene] = s
				h.wg.Add(1)
				started = true
			}
		}
		fl.err = err
		h.mu.Unlock()
		if started {
			go s.frameLoop() // exits via s.ctx; wg released in its defer
			h.cCreated.Inc()
			h.cfg.Logf("hub: scene %d created (%d frames, %d sessions live)",
				scene, s.store.NumFrames(), h.NumSessions())
		} else if s != nil {
			s.store.Wait() // built for a hub already shutting down
		}
		close(fl.done)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// buildSession constructs a session: the store via the config factory
// (injected with the scene's labeled view of the shared encode tier) and
// the per-session visibility pipeline, counters, and lifecycle. A
// vivo.BuildStore store returns at its first frame, so hub.store_build
// times the factory up to frame 0; the rest builds behind the session.
func (h *Hub) buildSession(scene uint32) (*session, error) {
	label := strconv.FormatUint(uint64(scene), 10)
	built := h.cfg.Metrics.Histogram("hub.store_build", nil).TimeMillis()
	store, err := h.cfg.NewStore(scene, blockcache.SessionBlocks(h.tier, label))
	if err != nil {
		return nil, fmt.Errorf("hub: scene %d store: %w", scene, err)
	}
	if store == nil || store.NumFrames() == 0 {
		return nil, fmt.Errorf("hub: scene %d has an empty store", scene)
	}
	h.cBuilt.Inc()
	built()
	fps := h.cfg.FPS
	if fps <= 0 {
		fps = store.FPS()
	}
	if fps <= 0 {
		fps = 30
	}
	ctx, cancel := context.WithCancel(h.ctx)
	s := &session{
		hub:    h,
		scene:  scene,
		label:  label,
		store:  store,
		vis:    vivo.New(store.Grid(), vivo.DefaultParams()),
		fps:    fps,
		subs:   map[*subscriber]struct{}{},
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		posed:  make(chan struct{}),
	}
	prefix := "hub.session." + label + "."
	s.cFrames = h.cfg.Metrics.Counter(prefix + "frames")
	s.cCells = h.cfg.Metrics.Counter(prefix + "cells")
	s.cBytes = h.cfg.Metrics.Counter(prefix + "bytes")
	s.cConnects = h.cfg.Metrics.Counter(prefix + "connects")
	s.cDisconnects = h.cfg.Metrics.Counter(prefix + "disconnects")
	s.cDropsEnqueue = h.cfg.Metrics.Counter(prefix + "drops.enqueue")
	s.cDropsSlow = h.cfg.Metrics.Counter(prefix + "drops.slowclient")
	s.cViolCull = h.cfg.Metrics.Counter(prefix + "budget_violations.cull")
	s.cViolSerialize = h.cfg.Metrics.Counter(prefix + "budget_violations.serialize")
	s.cViolSend = h.cfg.Metrics.Counter(prefix + "budget_violations.send")
	s.wFrameMS = h.cfg.Metrics.Windowed(prefix+"window.frame_ms", nil)
	s.wMisses = h.cfg.Metrics.WindowedCounter(prefix + "window.misses")
	s.wBudgetViol = h.cfg.Metrics.WindowedCounter(prefix + "window.budget_violations")
	return s, nil
}

// handle runs one client connection: handshake, scene routing, then the
// read loop feeding its session.
func (h *Hub) handle(conn net.Conn) {
	defer h.wg.Done()
	defer conn.Close()

	// Track the connection through the handshake so Shutdown can sever it
	// without waiting out the handshake deadline; reject outright when
	// shutdown already started.
	h.mu.Lock()
	if h.ctx.Err() != nil {
		h.mu.Unlock()
		h.cRejects.Inc()
		return
	}
	h.pending[conn] = struct{}{}
	h.mu.Unlock()
	unpend := func() {
		h.mu.Lock()
		delete(h.pending, conn)
		h.mu.Unlock()
	}

	// One Reader frames everything the client sends, the Hello included.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := wire.NewReader(conn)
	msg, err := rd.Read()
	if err != nil {
		unpend()
		h.cfg.Logf("hub: handshake read: %v", err)
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		unpend()
		h.cfg.Logf("hub: expected Hello, got %v", msg.Type())
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Resolve (possibly build) the session first — it can take a store
	// build — then register, retrying if the session was reaped between
	// lookup and registration.
	var s *session
	var c *subscriber
	for {
		s, err = h.joinSession(hello.Scene)
		if err != nil {
			unpend()
			if errors.Is(err, errShutdown) {
				h.cRejects.Inc()
				return
			}
			h.cfg.Logf("hub: client %d join scene %d: %v", hello.ClientID, hello.Scene, err)
			return
		}
		c = &subscriber{
			conn:   conn,
			id:     hello.ClientID,
			name:   hello.Name,
			pull:   hello.Flags&wire.HelloFlagPull != 0,
			layers: hello.Flags&wire.HelloFlagLayers != 0,
			rate:   abr.NewEWMA(0.3), // the simulator's smoothing
			out:    make(chan outBuf, h.cfg.QueueDepth),
			done:   make(chan struct{}),
			drain:  make(chan struct{}),
		}
		if h.register(s, c, conn) {
			break
		}
		// Lost the race with the reaper (or shutdown): try again — the
		// next joinSession either rebuilds the scene or rejects.
		select {
		case <-h.ctx.Done():
			unpend()
			h.cRejects.Inc()
			return
		default:
		}
	}
	h.cConnects.Inc()
	s.cConnects.Inc()
	defer func() {
		s.removeSub(c)
		h.mu.Lock()
		delete(h.subLabels, c.sub)
		h.mu.Unlock()
		h.cDisconnects.Inc()
		s.cDisconnects.Inc()
		h.cfg.Events.Append(obs.EventLeave, s.label, int(c.sub), "")
	}()

	nx, ny, nz := s.store.Grid().Dims()
	if err := wire.WriteMessage(conn, &wire.Welcome{
		SessionID:  c.sub,
		FPS:        uint16(s.fps),
		NumFrames:  uint32(s.store.NumFrames()),
		CellSize:   s.store.Grid().Size(),
		Qualities:  uint8(len(s.store.Strides())),
		GridOrigin: s.store.Grid().Origin(),
		GridDims:   [3]uint32{uint32(nx), uint32(ny), uint32(nz)},
	}); err != nil {
		h.cfg.Logf("hub: welcome: %v", err)
		return
	}

	// Single owned writer: every byte after Welcome goes through it, and
	// its death (write error, drain completion) tears the connection down
	// via c.close() so the reader, the frame loop, and servePull all stop
	// feeding a dead peer promptly.
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		s.writeLoop(c)
	}()

	// Reader: pose updates, pull requests, pongs — until Bye, an error,
	// or the idle timeout expires (heartbeat miss).
	for {
		if h.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(h.cfg.IdleTimeout))
		}
		msg, err := rd.Read()
		if err != nil {
			if isTimeout(err) {
				h.cfg.Metrics.Counter("transport.heartbeat.misses").Inc()
				h.cfg.Logf("hub: client %d idle for %v — dropping", c.id, h.cfg.IdleTimeout)
			}
			break
		}
		switch m := msg.(type) {
		case *wire.PoseUpdate:
			c.mu.Lock()
			c.pose = m.Pose
			c.seen = true
			c.mu.Unlock()
			s.sawPose()
		case *wire.SegmentRequest:
			c.mu.Lock()
			c.pull = true
			c.mu.Unlock()
			s.servePull(c, m)
		case *wire.Ping:
			// Answer through the owned writer; a full queue on a dying
			// connection just drops the pong.
			s.enqueueMsg(c, &wire.Pong{Seq: m.Seq, T: m.T}, -1, time.Time{})
		case *wire.Pong:
			h.cfg.Metrics.Counter("transport.pongs").Inc()
		case *wire.Bye:
			goto done
		default:
			// Ignore unexpected but valid messages.
		}
	}
done:
	c.close()
	<-writeDone
}

// register adds c to s (failing when s is already closed by the reaper or
// shutdown), assigns its hub-wide subscriber id, records its label for
// QoE readability, and clears the connection's pending-handshake state.
func (h *Hub) register(s *session, c *subscriber, conn net.Conn) bool {
	h.mu.Lock()
	if h.ctx.Err() != nil {
		delete(h.pending, conn)
		h.mu.Unlock()
		return false
	}
	h.nextSub++
	sub := h.nextSub
	h.mu.Unlock()
	c.sub = sub
	// Session registration takes s.mu; hub bookkeeping retakes h.mu.
	// Never nested, so the reaper (h.mu then s.mu) cannot deadlock.
	if !s.addSub(c) {
		return false
	}
	h.mu.Lock()
	delete(h.pending, conn)
	name := c.name
	if name == "" {
		name = "client" + strconv.FormatUint(uint64(c.id), 10)
	}
	h.subLabels[sub] = "scene" + strconv.FormatUint(uint64(s.scene), 10) + "/" + name
	// A (scene, client) pair seen before is a reconnect, not a join.
	seenKey := uint64(s.scene)<<32 | uint64(c.id)
	typ := obs.EventJoin
	if _, seen := h.seenClients[seenKey]; seen {
		typ = obs.EventReconnect
	}
	h.seenClients[seenKey] = struct{}{}
	h.mu.Unlock()
	h.cfg.Events.Append(typ, s.label, int(sub), name)
	return true
}

func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}
