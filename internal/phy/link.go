package phy

import (
	"math"

	"volcast/internal/geom"
)

// LinkBudget holds the fixed terms of the 60 GHz link equation. The
// defaults are calibrated so that trace-scale viewing positions (1–5 m)
// with the default codebook land in the paper's measured RSS band
// (−78…−54 dBm, Fig. 3b/3d).
type LinkBudget struct {
	// TxPowerDBm is the conducted transmit power fed to the array.
	TxPowerDBm float64
	// RxGainDBi is the client's quasi-omni receive gain.
	RxGainDBi float64
	// NoiseFloorDBm is thermal noise + noise figure over the 1.76 GHz
	// 802.11ad channel (≈ −174 + 10·log10(1.76e9) + 7).
	NoiseFloorDBm float64
}

// DefaultLinkBudget returns the calibrated budget.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{TxPowerDBm: 8, RxGainDBi: 0, NoiseFloorDBm: -74.5}
}

// Radio bundles an array, a channel model and a link budget: everything
// needed to predict the RSS a client at some position sees for a given
// transmit AWV.
type Radio struct {
	Array   *Array
	Channel *Channel
	Budget  LinkBudget
}

// NewRadio assembles a radio with the default budget.
func NewRadio(a *Array, ch *Channel) *Radio {
	return &Radio{Array: a, Channel: ch, Budget: DefaultLinkBudget()}
}

// Link is the link response between a radio and one receiver position:
// every term of the RSS computation that depends on neither the transmit
// weights nor on who stands in the room — the traced paths with each
// one's free-space loss, steering vector and element-pattern gain — plus,
// when built with a codebook, every sector's gain along every path. Body
// blockage is a bit mask over the paths (bit p = a body stands in path
// p), supplied at evaluation time.
//
// Building a Link costs one ray trace and one steering vector per path,
// and one dot product per sector and path; evaluating it costs one dot
// product per path (RSS) or additions only (Sweep, SectorRSS: one pass
// over the codebook per blocked mask, a lookup after that) and allocates
// nothing. Every value is bit-identical to tracing and steering afresh
// per call: the float expressions and their order are the same, only
// hoisted. So a Link may be kept for as long as its receiver stays put
// (BuiltFor says whether it has). A Link holds evaluation scratch, so it
// is not safe for concurrent use.
type Link struct {
	radio    *Radio
	array    *Array
	budget   LinkBudget
	bodyLoss float64
	tx, rx   geom.Vec3
	paths    []Path // geometric: no blockage applied
	via      bounces
	terms    []pathTerm
	sv       AWV // steering vectors, path-major, Elements() each
	we       AWV // scratch: the weights under evaluation, imperfections applied

	// Sector table, row-major by sector then path: sector s's gain (dBi)
	// along path p, and the linear power (mW) it delivers over p when p
	// is clear (power[0]) or body-blocked (power[1]). A power column is
	// computed when a mask first needs it (its bit in filled): most paths
	// are only ever seen in one state.
	codebook *Codebook
	gains    []float64
	power    [2][]float64
	filled   [2]uint64

	// Swept rows: every sector's RSS (dBm) under each of the first
	// len(rowMasks) masks evaluated since Reset, row i (under rowMasks[i])
	// at rows[i*sectors:]. A planner asks one link about a handful of
	// masks per frame — one per set of other bodies in its path — and
	// about each of them many times. A mask past the memo's capacity is
	// evaluated afresh, which gives the same floats.
	rows     []float64
	rowMasks [8]uint64
	nrows    int
}

// pathTerm holds one path's weight-independent link-equation terms.
type pathTerm struct {
	fspl   float64
	elem   float64 // element-pattern gain toward the path
	behind bool    // the path leaves behind the panel
}

// Link builds the link response toward rx. cb may be nil when no sector
// sweep is needed (Sweep and SectorRSS then must not be called).
func (r *Radio) Link(cb *Codebook, rx geom.Vec3) *Link {
	l := new(Link)
	l.Reset(r, cb, rx)
	return l
}

// Reset rebuilds l for a new radio, codebook or receiver position,
// reusing its buffers.
func (l *Link) Reset(r *Radio, cb *Codebook, rx geom.Vec3) {
	a := r.Array
	l.radio, l.array, l.budget, l.bodyLoss, l.tx, l.rx = r, a, r.Budget, r.Channel.BodyLossDB, a.Pos, rx
	if l.paths == nil { // first build: room for the LOS and first-order paths
		l.paths, l.terms, l.sv = make([]Path, 0, 7), make([]pathTerm, 0, 7), make(AWV, 0, 7*a.Elements())
	}
	l.paths = r.Channel.trace(l.paths[:0], &l.via, a.Pos, rx)
	l.terms, l.sv = l.terms[:0], l.sv[:0]
	for _, p := range l.paths {
		u := a.localDir(p.Dir.Norm())
		t := pathTerm{fspl: FSPL(p.Length), behind: u.Z <= 0}
		if !t.behind {
			t.elem = a.elementGain(u.Z)
		}
		l.terms = append(l.terms, t)
		l.sv = a.steer(l.sv, u)
	}
	if cap(l.we) < a.Elements() {
		l.we = make(AWV, a.Elements())
	}
	l.codebook = cb
	if cb == nil {
		return
	}
	np, n := len(l.paths), len(cb.Sectors)*len(l.paths)
	none := ^uint64(0) << np // no column computed; there are none past np
	l.filled = [2]uint64{none, none}
	l.nrows = 0
	size := 3*n + len(l.rowMasks)*len(cb.Sectors)
	if cap(l.gains) < size {
		l.gains = make([]float64, n, size) // one slab: gains, the two power tables, the swept rows
	}
	l.gains = l.gains[:n]
	l.power = [2][]float64{l.gains[n : 2*n : 2*n], l.gains[2*n : 3*n : 3*n]}
	l.rows = l.gains[3*n : size]
	for s, we := range cb.radiatedOn(a) {
		for p := 0; p < np; p++ {
			l.gains[s*np+p] = l.gain(we, p)
		}
	}
}

// Rx returns the receiver position the link was built for.
func (l *Link) Rx() geom.Vec3 { return l.rx }

// BuiltFor reports whether l is what Reset(r, cb, rx) would build, that
// is, whether its last Reset was on r and cb toward rx, bit for bit. It
// takes the radio and codebook to be unchanged since.
func (l *Link) BuiltFor(r *Radio, cb *Codebook, rx geom.Vec3) bool {
	return l.radio == r && l.codebook == cb && sameBits(l.rx, rx)
}

// sameBits reports whether a and b hold the same floats, bit for bit (so
// 0 and -0 differ, as they may in a trace).
func sameBits(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// BlockedBy returns the mask of paths that pass through any of the bodies.
func (l *Link) BlockedBy(bodies []Body) uint64 {
	var mask uint64
	for p := range l.paths {
		for _, b := range bodies {
			if b.blocks(l.tx, l.rx, &l.via[p], l.paths[p].Reflections) {
				mask |= 1 << p
				break
			}
		}
	}
	return mask
}

// weigh loads w, with the array imperfections applied, into the link's
// scratch weights (a codebook's sectors come radiated already).
func (l *Link) weigh(w AWV) { l.we = l.array.weigh(l.we[:len(w)], w) }

// gain returns the transmit gain (dBi) of radiated weights we along path p.
func (l *Link) gain(we AWV, p int) float64 {
	if l.terms[p].behind {
		return behindPanelDBi
	}
	ne := l.array.Elements()
	return arrayFactorDB(we, l.sv[p*ne:(p+1)*ne]) + l.terms[p].elem
}

// dbm is the link equation for one path under transmit gain g; a blocked
// path pays the body loss on top of its reflection loss.
func (l *Link) dbm(p int, g float64, blocked bool) float64 {
	loss := l.paths[p].ExtraLossDB
	if blocked {
		loss += l.bodyLoss
	}
	return l.budget.TxPowerDBm + g + l.budget.RxGainDBi - l.terms[p].fspl - loss
}

// toDBm converts summed linear path power to dBm.
func toDBm(linear float64) float64 {
	if linear <= 0 {
		return -200
	}
	return 10 * math.Log10(linear)
}

// RSS returns the received signal strength (dBm) for transmit weights w,
// summing power over all propagation paths (LOS + reflections), the paths
// in the blocked mask attenuated by the body loss.
//
//vollint:hotpath
func (l *Link) RSS(w AWV, blocked uint64) float64 {
	l.weigh(w)
	var linear float64
	for p := range l.paths {
		linear += pow10(l.dbm(p, l.gain(l.we, p), blocked>>p&1 != 0) / 10)
	}
	return toDBm(linear)
}

// SectorRSS is RSS for the s-th sector of the link's codebook.
//
//vollint:hotpath
func (l *Link) SectorRSS(s int, blocked uint64) float64 {
	if row := l.row(blocked); row != nil {
		return row[s]
	}
	return l.sectorRSS(s, blocked)
}

// row returns every sector's RSS under blocked from the memo, sweeping
// the row on the mask's first use; nil when the memo is full without it.
func (l *Link) row(blocked uint64) []float64 {
	ns := len(l.codebook.Sectors)
	for i, m := range l.rowMasks[:l.nrows] {
		if m == blocked {
			return l.rows[i*ns : (i+1)*ns]
		}
	}
	if l.nrows == len(l.rowMasks) {
		return nil
	}
	l.rowMasks[l.nrows] = blocked
	row := l.rows[l.nrows*ns : (l.nrows+1)*ns]
	l.nrows++
	for s := range row {
		row[s] = l.sectorRSS(s, blocked)
	}
	return row
}

// sectorRSS evaluates SectorRSS from the power tables.
func (l *Link) sectorRSS(s int, blocked uint64) float64 {
	if (blocked&^l.filled[1])|(^blocked&^l.filled[0]) != 0 {
		l.fill(blocked)
	}
	np := len(l.paths)
	var linear float64
	for p := 0; p < np; p++ {
		linear += l.power[blocked>>p&1][s*np+p]
	}
	return toDBm(linear)
}

// fill computes the power columns that blocked is the first mask to need.
func (l *Link) fill(blocked uint64) {
	np := len(l.paths)
	for p := 0; p < np; p++ {
		b := blocked >> p & 1
		if l.filled[b]>>p&1 != 0 {
			continue
		}
		l.filled[b] |= 1 << p
		for i := p; i < len(l.gains); i += np {
			l.power[b][i] = pow10(l.dbm(p, l.gains[i], b == 1) / 10)
		}
	}
}

// Sweep performs a sector-level sweep: it returns the codebook sector
// delivering the highest actual RSS (through whatever paths exist,
// including reflections around a blocked LOS) and that RSS. This is what
// 802.11ad SLS training measures, and it is why real links survive
// blockage by falling back to reflected paths.
//
//vollint:hotpath
func (l *Link) Sweep(blocked uint64) (Sector, float64) {
	best := Sector{Index: -1}
	bestRSS := math.Inf(-1)
	for s := range l.codebook.Sectors {
		if v := l.SectorRSS(s, blocked); v > bestRSS {
			best, bestRSS = l.codebook.Sectors[s], v
		}
	}
	return best, bestRSS
}

// RSS returns the received signal strength (dBm) at rx for transmit
// weights w under the channel's current bodies.
func (r *Radio) RSS(w AWV, rx geom.Vec3) float64 {
	l := r.Link(nil, rx)
	return l.RSS(w, l.BlockedBy(r.Channel.Bodies))
}

// RSSLOSOnly is RSS restricted to the line-of-sight path — used to show
// how much the reflection paths contribute under blockage.
//
// Kept: the blockage tests and the link differential test read it.
func (r *Radio) RSSLOSOnly(w AWV, rx geom.Vec3) float64 {
	l := r.Link(nil, rx)
	l.weigh(w)
	return l.dbm(0, l.gain(l.we, 0), l.BlockedBy(r.Channel.Bodies)&1 != 0) // trace puts the LOS first
}

// SweepBestSector is Link.Sweep toward rx under the channel's current
// bodies.
func (r *Radio) SweepBestSector(cb *Codebook, rx geom.Vec3) (Sector, float64) {
	l := r.Link(cb, rx)
	return l.Sweep(l.BlockedBy(r.Channel.Bodies))
}

// BestPathDir returns the departure direction of the strongest usable
// path (lowest loss per meter), preferring unblocked paths. This is what
// proactive beam switching steers to when the LOS is predicted blocked.
func (r *Radio) BestPathDir(rx geom.Vec3) (geom.Vec3, bool) {
	paths := r.Channel.Paths(r.Array.Pos, rx)
	bestScore := math.Inf(-1)
	var bestDir geom.Vec3
	found := false
	for _, p := range paths {
		// Score = the RSS this path alone would deliver under an ideally
		// steered beam (array gain is direction-independent at peak).
		score := -FSPL(p.Length) - p.ExtraLossDB
		if score > bestScore {
			bestScore, bestDir, found = score, p.Dir, true
		}
	}
	return bestDir, found
}
