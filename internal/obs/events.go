package obs

import (
	"sync"
	"time"
)

// Structured event log: a bounded ring of hub lifecycle and SLO
// transitions (joins, leaves, reaps, slow-client drops, breaches,
// recoveries). It is the "what just happened" complement to the metric
// plane's "how much": when a session's p99 spikes, the event ring says
// which subscribers churned around the spike. Served at /events by the
// debug mux.

// Event types emitted by the hub and the SLO engine.
const (
	EventJoin      = "join"
	EventLeave     = "leave"
	EventReconnect = "reconnect"
	EventReap      = "reap"
	EventSlowDrop  = "slow_drop"
	EventBreach    = "slo_breach"
	EventRecovery  = "slo_recovery"
)

// Event is one structured log entry.
type Event struct {
	// Seq is a monotonically increasing sequence number; gaps in a
	// snapshot mean the ring wrapped past unread entries.
	Seq int64 `json:"seq"`
	// TimeUnixNano is the wall-clock time of the event.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Scene is the session label the event belongs to ("" for
	// hub-global events).
	Scene string `json:"scene,omitempty"`
	// Sub is the subscriber id involved (0 = not subscriber-scoped).
	Sub int `json:"sub,omitempty"`
	// Detail is a human-readable summary (reason, counts, ...).
	Detail string `json:"detail,omitempty"`
}

// EventLog is a bounded ring of events. Safe for concurrent use; a nil
// *EventLog drops everything at zero cost, so emitters never nil-check.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next int64 // next sequence number == total appended
	// now is the clock; tests override it for deterministic timestamps.
	now func() time.Time
}

// NewEventLog returns a ring holding the last size events (size <= 0
// defaults to 1024).
func NewEventLog(size int) *EventLog {
	if size <= 0 {
		size = 1024
	}
	return &EventLog{ring: make([]Event, size), now: time.Now}
}

// Append records an event, evicting the oldest when the ring is full.
func (l *EventLog) Append(typ, scene string, sub int, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next%int64(len(l.ring))] = Event{
		Seq:          l.next,
		TimeUnixNano: l.now().UnixNano(),
		Type:         typ,
		Scene:        scene,
		Sub:          sub,
		Detail:       detail,
	}
	l.next++
}

// Snapshot returns the held events oldest-first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	size := int64(len(l.ring))
	start := int64(0)
	if n > size {
		start = n - size
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, l.ring[i%size])
	}
	return out
}
