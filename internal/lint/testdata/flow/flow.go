// Package flow is the statement walker's fixture: on and off add and
// drop a name from the walked state, probe records the state where it
// runs, and each function exercises one of the walker's rules.
package flow

func on(string)    {}
func off(string)   {}
func probe(string) {}

// Branches: an arm's effects stay in the arm; a loop's post statement
// runs after its body, on the body's copy.
func Branches(c bool, n int) {
	on("a")
	if c {
		off("a")
		on("b")
		probe("if-arm")
	} else {
		probe("else-arm")
	}
	probe("after-if")
	for i := 0; i < n; probe("post") {
		on("c")
		i++
	}
	switch n {
	case 0:
		off("a")
	}
	probe("after-loop-switch")
}

// Return: a block stops at a return.
func Return() {
	on("a")
	return
	probe("unreachable")
}

// Defers: a deferred call runs on a copy of the state.
func Defers() {
	on("a")
	defer off("a")
	defer func() {
		off("a")
		probe("deferred")
	}()
	probe("after-defer")
}

// Literals: called on the spot, a literal runs on the caller's state;
// stored, passed or spawned, it is walked later from a fresh one.
func Literals(run func(func())) {
	on("a")
	func() {
		on("inline")
		probe("inline")
	}()
	probe("after-inline")
	f := func() { probe("stored") }
	run(func() { probe("passed") })
	go func() { probe("spawned") }()
	f()
}

// Selects: a comm clause runs on its arm's copy; a send can block unless
// the select has a default.
func Selects(ch chan int) {
	on("a")
	ch <- 1
	select {
	case ch <- 2:
		off("a")
		probe("comm")
	}
	select {
	case ch <- 3:
	default:
		probe("default")
	}
	probe("after-select")
}
