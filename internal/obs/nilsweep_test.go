package obs

import (
	"reflect"
	"testing"

	"volcast/internal/testutil/nilsweep"
)

// TestNilReceiverSweep: a nil Tracer, SLOEngine, EventLog or
// FlightRecorder is how instrumentation is switched off, so every
// exported pointer method of one must return without touching it.
func TestNilReceiverSweep(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[Tracer](),
		reflect.TypeFor[SLOEngine](),
		reflect.TypeFor[EventLog](),
		reflect.TypeFor[FlightRecorder](),
	} {
		nilsweep.Sweep(t, typ)
	}
}
