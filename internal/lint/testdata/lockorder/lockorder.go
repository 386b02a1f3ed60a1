// Package lockorder is the lockorder golden fixture. It impersonates
// volcast/internal/hub, so it must define the declared hierarchy types
// (Hub, session, subscriber) with their mutex fields; frameCache is an
// undeclared class of its own. It exercises: an A/B cycle across two
// functions, interprocedural self-deadlocks through a callee summary one
// and two calls down, a hierarchy-rank violation, and the clean shapes
// (declared order, sequential reuse, branch-local critical sections,
// go-literal isolation, local mutexes).
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

// relay re-enters its own lock two calls down, so only the transitive
// summary (step owns what inc acquires) sees it.
type relay struct {
	mu sync.Mutex
	n  int
}

func (r *relay) inc() {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

func (r *relay) step() { r.inc() }

// Relay holds its lock across step.
func (r *relay) Relay() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step() //want:lockorder
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

// The shapes below pin the statement walk's rules on code after a
// return, a loop's post statement, a select's comm clause, a deferred
// unlock, and function literals called inline or stored. Each uses a
// class of its own so no two share an edge.

type afterReturn struct{ mu sync.Mutex }
type postLock struct{ mu sync.Mutex }
type commLock struct {
	mu sync.Mutex
	ch chan int
}
type deferLit struct{ mu sync.Mutex }
type inlineLit struct{ mu sync.Mutex }

// AfterReturn re-locks only in unreachable code: no edge.
func AfterReturn(x *afterReturn) {
	x.mu.Lock()
	x.mu.Unlock()
	return
	x.mu.Lock()
	x.mu.Lock()
}

// PostRelock re-acquires the held lock in the loop's post statement.
func PostRelock(x *postLock, n int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i := 0; i < n; x.mu.Lock() { //want:lockorder
		i++
	}
}

// get takes the lock itself.
func (x *commLock) get() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return 1
}

// CommRelock re-enters its lock through a callee in a select comm
// clause.
func CommRelock(x *commLock) {
	x.mu.Lock()
	defer x.mu.Unlock()
	select {
	case x.ch <- x.get(): //want:lockorder
	default:
	}
}

// DeferLitRelock unlocks only in a deferred literal, so the second Lock
// still finds the lock held.
func DeferLitRelock(x *deferLit) {
	x.mu.Lock()
	defer func() { x.mu.Unlock() }()
	x.mu.Lock() //want:lockorder
}

// InlineRelock re-locks inside a literal that runs right here.
func InlineRelock(x *inlineLit) {
	x.mu.Lock()
	defer x.mu.Unlock()
	func() {
		x.mu.Lock() //want:lockorder
		x.mu.Unlock()
	}()
}

// StoredOrder returns a literal that, when called, takes a session while
// holding a subscriber — against the declared hierarchy.
func StoredOrder(s *session, c *subscriber) func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		s.mu.Lock() //want:lockorder
		s.subs = nil
		s.mu.Unlock()
	}
}
