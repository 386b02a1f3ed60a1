// Package nilsweep calls every exported pointer method of a type on a nil
// receiver. The observability types (obs.Tracer, metrics.Registry, …)
// are switched off by being nil, so each of their methods must return
// without touching the receiver:
//
//	nilsweep.Sweep(t, reflect.TypeFor[Tracer]())
package nilsweep

import (
	"io"
	"reflect"
)

// TB is the subset of testing.TB Sweep needs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Sweep calls each exported method declared on *T, for T = typ, with a
// nil receiver, and fails t for every call that panics. Methods with a
// value receiver are skipped: calling one through a nil pointer
// dereferences it by definition. Each argument is its type's zero value,
// except where the method must be able to use it: a func argument is a
// func that returns zero values, and an interface that io.Discard
// satisfies (an io.Writer) gets io.Discard.
func Sweep(t TB, typ reflect.Type) {
	t.Helper()
	ptr := reflect.PointerTo(typ)
	for i := 0; i < ptr.NumMethod(); i++ {
		m := ptr.Method(i)
		if _, byValue := typ.MethodByName(m.Name); byValue {
			continue
		}
		args := []reflect.Value{reflect.Zero(ptr)}
		for j := 1; j < m.Type.NumIn(); j++ {
			args = append(args, arg(m.Type.In(j)))
		}
		if r := call(m.Func, args, m.Type.IsVariadic()); r != nil {
			t.Errorf("(*%s).%s panics on a nil receiver: %v", typ.Name(), m.Name, r)
		}
	}
}

// call calls fn and returns what it panicked with, if anything.
func call(fn reflect.Value, args []reflect.Value, variadic bool) (panicked any) {
	defer func() { panicked = recover() }()
	if variadic {
		fn.CallSlice(args)
	} else {
		fn.Call(args)
	}
	return nil
}

func arg(t reflect.Type) reflect.Value {
	switch {
	case t.Kind() == reflect.Func:
		return reflect.MakeFunc(t, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, t.NumOut())
			for i := range out {
				out[i] = reflect.Zero(t.Out(i))
			}
			return out
		})
	case t.Kind() == reflect.Interface && reflect.TypeOf(io.Discard).Implements(t):
		return reflect.ValueOf(io.Discard)
	}
	return reflect.Zero(t)
}
