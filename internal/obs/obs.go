// Package obs is the pipeline's per-frame tracing layer: a bounded,
// allocation-lean span recorder that attributes every frame's latency to
// the pipeline stage that produced it — the cross-layer observability the
// paper's argument rests on. Where internal/metrics aggregates (how much
// time did planning take overall?), obs attributes (which stage ate frame
// 412's 33 ms budget for user 3?).
//
// A Tracer records Spans — (frame, user, stage, start, duration) tuples —
// into a fixed-size ring, so memory is bounded no matter how long the
// process runs and the hot path never allocates. Every method is nil-safe:
// a component holding a nil *Tracer (tracing disabled) records nothing at
// the cost of one pointer check. Traces export as Chrome/Perfetto
// trace_event JSON (chrome://tracing, ui.perfetto.dev) and as a compact
// text timeline; Analyze derives per-(frame,user) deadline reports naming
// the slowest stage of every frame that missed its budget.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline layer. The values cover the full
// cross-layer path: content generation → encode → cache fill → visibility
// cull → prediction → frame planning → beam design → MAC airtime →
// transport serialize → wire send → decode → present.
type Stage uint8

// The pipeline stages, in pipeline order.
const (
	StageGenerate Stage = iota
	StageEncode
	StageCache
	StageCull
	StagePredict
	StagePlan
	StageBeam
	StageAirtime
	StageSerialize
	StageSend
	StageDecode
	StagePresent
	numStages
)

var stageNames = [numStages]string{
	"generate", "encode", "cache", "cull", "predict", "plan",
	"beam", "airtime", "serialize", "send", "decode", "present",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// Span flags.
const (
	// FlagModeled marks a span whose duration is simulated (e.g. the MAC
	// airtime a frame would occupy) rather than measured wall time.
	FlagModeled uint8 = 1 << 0
)

// Span is one recorded stage execution. Frame and User are pipeline
// coordinates: User -1 marks a frame-global span (shared work such as
// planning), Frame -1 marks pipeline work not tied to a frame (cache
// fills). Start is nanoseconds since the tracer's epoch.
type Span struct {
	Frame int32
	User  int32
	Stage Stage
	Flags uint8
	Start int64
	Dur   int64
}

// PipelineUser is the User value of frame-global spans.
const PipelineUser = -1

// DefaultDeadline is the per-frame budget at the paper's 30 FPS content
// rate.
const DefaultDeadline = 33 * time.Millisecond

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity (spans are 32 bytes, so this is 2 MiB of ring).
const DefaultCapacity = 1 << 16

// defaultBudgetPct carves the frame deadline into per-stage budgets, in
// percent. The split follows the paper's pipeline shape: content work
// (generate/encode) and the client side (decode/present) dominate, the
// radio model (airtime) and the send path get the next tranche, and the
// bookkeeping stages get slivers. Percentages sum to 100, so a frame that
// holds every stage budget also holds the frame deadline.
var defaultBudgetPct = [numStages]float64{
	StageGenerate:  12,
	StageEncode:    18,
	StageCache:     4,
	StageCull:      4,
	StagePredict:   4,
	StagePlan:      8,
	StageBeam:      4,
	StageAirtime:   10,
	StageSerialize: 6,
	StageSend:      10,
	StageDecode:    12,
	StagePresent:   8,
}

// Tracer records spans into a fixed ring. All methods are safe for
// concurrent use and nil-safe; construct with New. Its frames are judged
// against DefaultDeadline and its stages against their fixed shares of it.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	buf   []Span
	total uint64 // spans ever recorded; ring index = total % cap
}

// New returns a tracer holding the last capacity spans (DefaultCapacity
// when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		epoch: time.Now(),
		buf:   make([]Span, capacity),
	}
}

// StageBudget returns the per-frame budget for one stage: its
// defaultBudgetPct share of DefaultDeadline. Unknown stages have no
// budget (zero). A nil tracer has the same budgets.
func (t *Tracer) StageBudget(s Stage) time.Duration {
	if s >= numStages {
		return 0
	}
	return time.Duration(float64(DefaultDeadline) * defaultBudgetPct[s] / 100)
}

// Record stores one measured span.
//
//vollint:hotpath
func (t *Tracer) Record(frame, user int, stage Stage, start time.Time, dur time.Duration) {
	t.record(frame, user, stage, 0, start, dur)
}

// RecordModeled stores one span whose duration is simulated rather than
// measured (MAC airtime, emulated links). The span is stamped at the
// current time and flagged FlagModeled.
func (t *Tracer) RecordModeled(frame, user int, stage Stage, dur time.Duration) {
	t.record(frame, user, stage, FlagModeled, time.Now(), dur)
}

//vollint:hotpath
func (t *Tracer) record(frame, user int, stage Stage, flags uint8, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	t.buf[t.total%uint64(len(t.buf))] = Span{
		Frame: int32(frame),
		User:  int32(user),
		Stage: stage,
		Flags: flags,
		Start: start.Sub(t.epoch).Nanoseconds(),
		Dur:   dur.Nanoseconds(),
	}
	t.total++
	t.mu.Unlock()
}

// Active is an in-progress span started by Begin. The zero value (from a
// nil tracer) is valid and End on it is a no-op. Active is a value type:
// starting and ending a span never allocates.
type Active struct {
	t     *Tracer
	start time.Time
	frame int32
	user  int32
	stage Stage
}

// Begin starts a measured span; call End on the result to record it.
func (t *Tracer) Begin(frame, user int, stage Stage) Active {
	if t == nil {
		return Active{}
	}
	return Active{t: t, start: time.Now(), frame: int32(frame), user: int32(user), stage: stage}
}

// End records the span started by Begin.
func (a Active) End() {
	if a.t == nil {
		return
	}
	a.t.Record(int(a.frame), int(a.user), a.stage, a.start, time.Since(a.start))
}

// Len returns the number of spans currently held (at most the capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total < uint64(len(t.buf)) {
		return int(t.total)
	}
	return len(t.buf)
}

// Total returns the number of spans ever recorded (recording continues
// past the capacity by overwriting the oldest spans).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Epoch returns the tracer's construction time (span Start values are
// nanoseconds since it).
//
// Kept: the obs tests place spans at known offsets from it.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Snapshot copies the held spans in recording order, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	if t.total <= n {
		return append([]Span(nil), t.buf[:t.total]...)
	}
	head := t.total % n
	out := make([]Span, 0, n)
	out = append(out, t.buf[head:]...)
	out = append(out, t.buf[:head]...)
	return out
}

// def is the process-wide tracer, nil until SetDefault enables tracing
// (volsim -trace, volserve -debug-addr). Components default to it when
// their own Trace field is nil; every recording site tolerates nil.
var def atomic.Pointer[Tracer]

// Default returns the process-wide tracer (nil when tracing is disabled).
func Default() *Tracer { return def.Load() }

// SetDefault installs t as the process-wide tracer (nil disables).
func SetDefault(t *Tracer) { def.Store(t) }
