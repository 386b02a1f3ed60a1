// Package bufown is the bufown golden fixture. It impersonates
// volcast/internal/transport and exercises interprocedural buffer
// ownership against the real volcast/internal/wire package: a double
// release, a use after the reference was handed off, an early-return
// leak, a never-released acquisition, and the clean shapes (error-guard
// returns, Retain before sharing, select-branch consume, consuming
// callees classified through the call graph, borrow callees, and
// local-container stores that end tracking).
package bufown

import "volcast/internal/wire"

// envelope mirrors the hub's outBuf: a struct value carrying the owned
// reference.
type envelope struct {
	buf *wire.Buffer
}

// enqueue consumes its parameter: every path sends or releases it.
func enqueue(q chan *wire.Buffer, b *wire.Buffer) {
	select {
	case q <- b:
	default:
		b.Release()
	}
}

// post consumes its parameter by wrapping it into a carrier and sending.
func post(q chan envelope, b *wire.Buffer) {
	q <- envelope{buf: b}
}

// peek borrows: it reads the buffer and spends nothing.
func peek(b *wire.Buffer) {
	n := b.Len()
	_ = n
}

// DoubleFree releases the same owned reference twice.
func DoubleFree() {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	b.Release()
	b.Release() //want:bufown
}

// DoubleSend spends its single reference on the first send; the second
// send ships a reference it no longer owns.
func DoubleSend(q chan *wire.Buffer) {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	q <- b
	q <- b //want:bufown
}

// UseAfterHandoff hands the reference to a consuming callee, then keeps
// reading the buffer it no longer owns.
func UseAfterHandoff(q chan *wire.Buffer) {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	enqueue(q, b)
	n := b.Len() //want:bufown
	_ = n
}

// Leaky exits between the acquisition and the hand-off without
// releasing: the drop path leaks the buffer.
func Leaky(q chan *wire.Buffer, drop bool) {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	if drop {
		return //want:bufown
	}
	q <- b
}

// Forgotten acquires an owned reference and never spends it.
func Forgotten() {
	b, err := wire.NewBuffer(&wire.Ping{}) //want:bufown
	if err != nil {
		return
	}
	n := b.Len()
	_ = n
}

// Share buys a second reference before sharing twice: balanced, clean.
func Share(q chan *wire.Buffer) {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	b.Retain(1)
	q <- b
	q <- b
}

// Wrapped transfers ownership through the carrier struct: clean.
func Wrapped(q chan envelope) {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	post(q, b)
}

// BorrowThenRelease lends the buffer to a borrowing callee and then
// spends its own reference: clean.
func BorrowThenRelease() {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	peek(b)
	b.Release()
}

// TrySend consumes exactly one reference on whichever select arm runs:
// clean.
func TrySend(q chan *wire.Buffer, b *wire.Buffer) {
	select {
	case q <- b:
	default:
		b.Release()
	}
}

// Stash stores the buffer into a function-local container; the analysis
// conservatively ends tracking there rather than guess: clean.
func Stash(b *wire.Buffer) {
	m := map[int]*wire.Buffer{}
	m[0] = b
}

// The shapes below pin the statement walk's rules on code after a
// return, a loop's post statement, a select's comm clause, a deferred
// release, and function literals called inline or stored.

// AfterReturn double-releases only in unreachable code: clean.
func AfterReturn() {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	b.Release()
	return
	b.Release()
}

// PostRelease releases again from the loop's post statement.
func PostRelease(n int) {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	b.Release()
	for i := 0; i < n; b.Release() { //want:bufown
		i++
	}
}

// CommDouble sends the reference in a comm clause, then releases it too.
func CommDouble(q chan *wire.Buffer) {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	select {
	case q <- b:
		b.Release() //want:bufown
	}
}

// DeferRelease releases on the way out and reads the buffer before
// then: clean, the deferred release spends the reference at the end.
func DeferRelease() {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	defer b.Release()
	n := b.Len()
	_ = n
}

// InlineDouble releases inside a literal that runs right here, then
// releases again.
func InlineDouble() {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	func() {
		b.Release()
	}()
	b.Release() //want:bufown
}

// StoredRelease hands the release to a literal called later: tracking
// ends at the capture.
func StoredRelease() {
	b, err := wire.NewBuffer(&wire.Ping{})
	if err != nil {
		return
	}
	f := func() { b.Release() }
	f()
}
