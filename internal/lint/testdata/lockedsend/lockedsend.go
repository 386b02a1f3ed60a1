// Package lockedsend is a vollint golden fixture: channel sends and
// blocking I/O under a held sync.Mutex, plus the shapes the analyzer must
// not cry wolf about.
package lockedsend

import (
	"net"
	"sync"

	"volcast/internal/wire"
)

type hub struct {
	mu  sync.Mutex
	out chan int
}

// BadSend sends on a channel between Lock and Unlock.
func (h *hub) BadSend(v int) {
	h.mu.Lock()
	h.out <- v //want:lockedsend
	h.mu.Unlock()
}

// BadSelectSend blocks in a select with no default while locked.
func (h *hub) BadSelectSend(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.out <- v: //want:lockedsend
	}
}

// BadConnWrite performs socket I/O under the lock: a stalled peer pins
// the mutex for every other locker.
func (h *hub) BadConnWrite(c net.Conn, b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c.Write(b) //want:lockedsend
}

// BadFramedRead waits on the peer for a whole message under the lock.
func (h *hub) BadFramedRead(rd *wire.Reader) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rd.Read() //want:lockedsend
}

// GoodUnlockFirst releases before sending.
func (h *hub) GoodUnlockFirst(v int) {
	h.mu.Lock()
	h.mu.Unlock()
	h.out <- v
}

// GoodNonBlocking cannot block: the default case bails out.
func (h *hub) GoodNonBlocking(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.out <- v:
	default:
	}
}

// GoodGoroutine spawns the send: the goroutine does not hold the
// spawner's lock.
func (h *hub) GoodGoroutine(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	go func() {
		h.out <- v
	}()
}

// GoodBranchUnlock unlocks on the early-return path; the send after the
// branch runs with the lock released on that path and the analyzer's
// branch-copy semantics must not report it as held-forever.
func (h *hub) GoodBranchUnlock(v int, ready bool) {
	h.mu.Lock()
	if !ready {
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	h.out <- v
}

// The shapes below pin the statement walk's rules on code after a
// return, a loop's post statement, a select's comm clause, a deferred
// unlock, and function literals called inline, stored, spawned or
// deferred.

// AfterReturn sends only in unreachable code after a return: clean.
func (h *hub) AfterReturn(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return
	h.out <- v
}

// PostSend sends from the loop's post statement while locked.
func (h *hub) PostSend(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < n; h.out <- i { //want:lockedsend
		i++
	}
}

// first keeps the byte count of a write.
func first(n int, _ error) int { return n }

// CommWrite writes to the socket while evaluating a select comm clause
// under the lock; the default case keeps the send itself non-blocking.
func (h *hub) CommWrite(c net.Conn, b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.out <- first(c.Write(b)): //want:lockedsend
	default:
	}
}

// DeferLitUnlock releases through a deferred literal: the lock is still
// held at the send.
func (h *hub) DeferLitUnlock(v int) {
	h.mu.Lock()
	defer func() { h.mu.Unlock() }()
	h.out <- v //want:lockedsend
}

// InlineSend sends inside a literal that runs right here, under the lock.
func (h *hub) InlineSend(v int) {
	h.mu.Lock()
	func() {
		h.out <- v //want:lockedsend
	}()
	h.mu.Unlock()
}

// StoredLockedSend returns a literal that locks and sends when called;
// the literal is walked on its own, from no locks held.
func (h *hub) StoredLockedSend(v int) func() {
	f := func() {
		h.mu.Lock()
		h.out <- v //want:lockedsend
		h.mu.Unlock()
	}
	return f
}

// GoLockedSend locks and sends inside the goroutine it spawns.
func (h *hub) GoLockedSend(v int) {
	go func() {
		h.mu.Lock()
		h.out <- v //want:lockedsend
		h.mu.Unlock()
	}()
}

// DeferLockedSend locks and sends inside a deferred literal.
func (h *hub) DeferLockedSend(v int) {
	defer func() {
		h.mu.Lock()
		h.out <- v //want:lockedsend
		h.mu.Unlock()
	}()
}
