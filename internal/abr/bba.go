package abr

// BBA is the buffer-based rate controller of Huang et al. (SIGCOMM '14,
// the paper's reference [7]): quality is a pure function of the buffer
// level — no bandwidth estimation at all. It maps the buffer range
// [Reservoir, Reservoir+Cushion] linearly onto the quality ladder,
// pinning the lowest rung below the reservoir and the highest above the
// cushion. It completes the controller family (rule-based cross-layer,
// MPC lookahead, BBA) that examples/adaptation compares; the session
// engine runs the rule-based one.
type BBA struct {
	// ReservoirSec is the buffer level below which quality pins to the
	// bottom rung.
	ReservoirSec float64
	// CushionSec is the buffer span over which quality ramps to the top.
	CushionSec float64
}

// NewBBA returns the standard tuning for short volumetric buffers
// (reservoir 0.3 s, cushion 1.2 s).
func NewBBA() *BBA { return &BBA{ReservoirSec: 0.3, CushionSec: 1.2} }

// Choose returns the quality index in [0, rungs) for the buffer level.
func (b *BBA) Choose(rungs int, bufferSec float64) int {
	if rungs <= 1 {
		return 0
	}
	res, cush := b.ReservoirSec, b.CushionSec
	if res < 0 {
		res = 0
	}
	if cush <= 0 {
		cush = 1
	}
	if bufferSec <= res {
		return 0
	}
	if bufferSec >= res+cush {
		return rungs - 1
	}
	frac := (bufferSec - res) / cush
	q := int(frac * float64(rungs))
	if q >= rungs {
		q = rungs - 1
	}
	return q
}
