// Package cgfix is the callgraph unit-test fixture: one small module of
// shapes whose resolution the graph builder must pin — direct calls,
// concrete method calls, interface dispatch (unresolved), func values
// (unresolved), go marking, go-literal body exclusion, deferred calls
// and type conversions (not calls).
package cgfix

// Animal is dispatched dynamically; its method calls must stay
// unresolved.
type Animal interface{ Sound() string }

// Dog is a concrete receiver; calls through *Dog must resolve.
type Dog struct{ name string }

// Sound implements Animal.
func (d *Dog) Sound() string { return d.name }

// Hot calls helper directly: resolved.
func Hot() { helper() }

func helper() {}

// CallsMethod calls a concrete method: resolved.
func CallsMethod(d *Dog) string { return d.Sound() }

// CallsInterface dispatches through an interface: unresolved.
func CallsInterface(a Animal) string { return a.Sound() }

// CallsFuncValue calls a func parameter: unresolved.
func CallsFuncValue(f func()) { f() }

// Spawns launches two goroutines; the literal's body calls must not be
// attributed to Spawns.
func Spawns() {
	go func() {
		helper()
	}()
	go helper()
}

// Defers records helper as a deferred call.
func Defers() { defer helper() }

// Chain reaches Dog.Sound only transitively.
func Chain() { CallsMethod(&Dog{}) }

// Convert is a type conversion, not a call site.
func Convert(x int) uint32 { return uint32(x) }
