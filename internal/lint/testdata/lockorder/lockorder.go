// Package lockorder is the lockorder golden fixture. It impersonates
// volcast/internal/hub, so it must define the declared hierarchy types
// (Hub, session, subscriber) with their mutex fields; frameCache is an
// undeclared class of its own. It exercises: an A/B cycle across two
// functions, an interprocedural self-deadlock through a callee summary,
// a hierarchy-rank violation, and the clean shapes (declared order,
// sequential reuse, branch-local critical sections, go-literal
// isolation, local mutexes).
package lockorder

import "sync"

// The declared hierarchy classes (checked to exist by lockorder).
type Hub struct {
	mu       sync.Mutex
	sessions map[string]*session
}

type session struct {
	mu   sync.Mutex
	subs []*subscriber
}

type subscriber struct {
	mu   sync.Mutex
	done chan struct{}
}

type frameCache struct {
	mu    sync.Mutex
	valid bool
}

// alpha and beta exist only to form an order cycle.
type alpha struct{ mu sync.Mutex }
type beta struct{ mu sync.Mutex }

// poller self-deadlocks through its own helper.
type poller struct {
	mu sync.Mutex
	n  int
}

// LockAB takes alpha then beta; LockBA takes them the other way round —
// together a deadlock-capable cycle.
func LockAB(a *alpha, b *beta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() //want:lockorder
	defer b.mu.Unlock()
}

// LockBA closes the cycle.
func LockBA(a *alpha, b *beta) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
}

// bump locks the poller (callees contribute their acquisitions to the
// caller's summary).
func (p *poller) bump() {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
}

// Poll re-enters its own lock through bump: a self-deadlock only visible
// interprocedurally.
func (p *poller) Poll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bump() //want:lockorder
}

// Demote locks the hub while holding a session — against the declared
// hub→session hierarchy.
func Demote(h *Hub, s *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h.mu.Lock() //want:lockorder
	h.sessions = nil
	h.mu.Unlock()
}

// Fanout takes subscriber then the undeclared frameCache: no rank to
// contradict, clean.
func Fanout(c *subscriber, fc *frameCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc.mu.Lock()
	fc.valid = true
	fc.mu.Unlock()
}

// Sequential reuses one lock back to back: no ordering edge.
func Sequential(h *Hub) {
	h.mu.Lock()
	h.sessions = map[string]*session{}
	h.mu.Unlock()
	h.mu.Lock()
	h.sessions = nil
	h.mu.Unlock()
}

// BranchLocal releases inside the branch before returning; the critical
// section never spans the later acquisition.
func BranchLocal(s *session, fc *frameCache) {
	s.mu.Lock()
	if len(s.subs) == 0 {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	fc.mu.Lock()
	fc.valid = false
	fc.mu.Unlock()
}

// Spawner holds the hub lock while launching a goroutine that locks a
// session: the literal runs on its own goroutine with nothing held, so
// no edge.
func Spawner(h *Hub, s *session, c *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	go func() {
		<-c.done
		s.mu.Lock()
		s.subs = nil
		s.mu.Unlock()
	}()
}

// LocalMutex uses a function-local mutex: unclassifiable, ignored.
func LocalMutex(fc *frameCache) {
	var mu sync.Mutex
	mu.Lock()
	fc.mu.Lock()
	fc.valid = true
	fc.mu.Unlock()
	mu.Unlock()
}
