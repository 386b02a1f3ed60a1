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
// when built with a codebook, every sector's array factor along every
// path. Body blockage is a bit mask over the paths (bit p = a body stands
// in path p), supplied at evaluation time.
//
// Building a Link costs one ray trace and one steering vector per path,
// one dot product per sector and path, and two pow10 per path. Evaluating
// it costs one dot product per path (RSS); a sector sweep (Sweep,
// BestCommonSector) ranks every sector by a multiply-add per path and
// runs the link equation only for the sectors whose rank comes within
// rankGuard of the best, and SectorRSS runs it for the sector asked.
// Nothing allocates. Every value is bit-identical to tracing and steering
// afresh per call: the float expressions and their order are the same,
// only hoisted, and a ranking decides only which values are computed
// (DESIGN.md §14). So a Link may be kept for as long as its receiver
// stays put (BuiltFor says whether it has). A Link holds evaluation
// scratch, so it is not safe for concurrent use.
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

	// Sector table: sector s's array factor along path p,
	// Σ_i (w_i·e_i)·a_p,i, at acc[s*np+p] (1 for a path that leaves behind
	// the panel, whose gain the weights do not change), and the factor of
	// path p's received power (mW) that no weight changes,
	// 10^((Tx + elem_p + Rx − FSPL_p − L_p)/10), at k[2p] when p is clear
	// and k[2p+1] when it is body-blocked. A sector's ranked power,
	// Σ_p max(|acc|², 1e−18)·k, is its received power up to rounding.
	codebook *Codebook
	acc      []complex128
	k        []float64

	// Swept rows, one under each of the first len(rowMasks) masks evaluated
	// since Reset: row i (under rowMasks[i]) holds every sector's ranked
	// power at ranked[i*sectors:], the RSS (dBm) of each sector evaluated
	// so far at exact[i*sectors:] (NaN for the rest), and its Sweep's
	// sector plus one at swept[i] (0 before its first Sweep). A planner
	// asks one link about a handful of masks per frame — one per set of
	// other bodies in its path — and about each of them many times. A
	// mask past the memo's capacity is ranked and evaluated afresh, which
	// gives the same floats.
	ranked   []float64
	exact    []float64
	swept    [8]int
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
	np, ns := len(l.paths), len(cb.Sectors)
	l.nrows = 0
	if cap(l.acc) < ns*np {
		l.acc = make([]complex128, ns*np)
	}
	l.acc = l.acc[:ns*np]
	rows := len(l.rowMasks) * ns
	size := 2*np + 2*rows
	if cap(l.k) < size {
		l.k = make([]float64, size) // one slab: k, then the ranked and the exact rows
	}
	l.k = l.k[:size]
	l.ranked, l.exact = l.k[2*np:2*np+rows:2*np+rows], l.k[2*np+rows:size:size]
	l.k = l.k[:2*np]
	ne := a.Elements()
	sectors := cb.radiatedOn(a)
	for p, t := range l.terms {
		if t.behind {
			for s := range sectors {
				l.acc[s*np+p] = 1
			}
			continue
		}
		// Two sectors per pass: their sums are independent, so each
		// element's adds overlap instead of waiting on the last element's
		// (DESIGN.md §14).
		sv := l.sv[p*ne : (p+1)*ne]
		s := 0
		for ; s+1 < ns; s += 2 {
			w0, w1 := sectors[s], sectors[s+1]
			if len(w0) == len(w1) {
				l.acc[s*np+p], l.acc[(s+1)*np+p] = arrayFactor2(w0, w1, sv)
			} else {
				l.acc[s*np+p], l.acc[(s+1)*np+p] = arrayFactor(w0, sv), arrayFactor(w1, sv)
			}
		}
		if s < ns {
			l.acc[s*np+p] = arrayFactor(sectors[s], sv)
		}
	}
	for p, t := range l.terms {
		g := t.elem
		if t.behind {
			g = behindPanelDBi
		}
		l.k[2*p] = pow10(l.dbm(p, g, false) / 10)
		l.k[2*p+1] = pow10(l.dbm(p, g, true) / 10)
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
	return l.budget.TxPowerDBm + g + l.budget.RxGainDBi - l.terms[p].fspl - l.loss(p, blocked)
}

// loss is path p's reflection loss, plus the body loss when blocked.
func (l *Link) loss(p int, blocked bool) float64 {
	loss := l.paths[p].ExtraLossDB
	if blocked {
		loss += l.bodyLoss
	}
	return loss
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

// rankGuard is how close to the best ranked power (relative) a sector's
// must come for a sweep to evaluate its RSS exactly. rankBound bounds the
// relative error of a ranked power against the received power the link
// equation sums (DESIGN.md §14 derives it); with rankBound ≪ rankGuard,
// every sector a sweep skips has a lower RSS than the one it picks.
const (
	rankGuard = 1e-9
	rankBound = 2e-13
)

// contends reports whether a sector of ranked power v may still be the
// one a sweep picks when the best ranked power is top.
func contends(v, top float64) bool { return v >= top*(1-rankGuard) }

// SectorRSS is RSS for the s-th sector of the link's codebook.
//
//vollint:hotpath
func (l *Link) SectorRSS(s int, blocked uint64) float64 {
	return l.exactAt(l.row(blocked), s, blocked)
}

// rank is the s-th sector's ranked power under blocked.
func (l *Link) rank(s int, blocked uint64) float64 {
	return l.rankAt(l.row(blocked), s, blocked)
}

// row returns the index of blocked's row in the memo, adding the row on
// the mask's first use; -1 when the memo is full without it.
func (l *Link) row(blocked uint64) int {
	for i, m := range l.rowMasks[:l.nrows] {
		if m == blocked {
			return i
		}
	}
	if l.nrows == len(l.rowMasks) {
		return -1
	}
	i := l.nrows
	l.nrows++
	l.rowMasks[i], l.swept[i] = blocked, 0
	ns := len(l.codebook.Sectors)
	ranked, exact := l.ranked[i*ns:(i+1)*ns], l.exact[i*ns:(i+1)*ns]
	for s := range ranked {
		ranked[s], exact[s] = l.rankedPower(s, blocked), math.NaN()
	}
	return i
}

// rankAt is rank with blocked's row already looked up (i = -1: none).
func (l *Link) rankAt(i, s int, blocked uint64) float64 {
	if i < 0 {
		return l.rankedPower(s, blocked)
	}
	return l.ranked[i*len(l.codebook.Sectors)+s]
}

// exactAt is SectorRSS with blocked's row already looked up (i = -1:
// none), evaluating the sector on its first use under the row's mask.
func (l *Link) exactAt(i, s int, blocked uint64) float64 {
	if i < 0 {
		return toDBm(l.sectorPower(s, blocked))
	}
	x := &l.exact[i*len(l.codebook.Sectors)+s]
	if math.IsNaN(*x) {
		*x = toDBm(l.sectorPower(s, blocked))
	}
	return *x
}

// rankedPower is Σ_p max(|acc|², 1e−18)·k over the s-th sector's paths
// under blocked: its received power (mW) within rankBound, relative.
func (l *Link) rankedPower(s int, blocked uint64) float64 {
	np := len(l.paths)
	var v float64
	for p, c := range l.acc[s*np : (s+1)*np] {
		v += max(real(c)*real(c)+imag(c)*imag(c), 1e-18) * l.k[2*p+int(blocked>>p&1)]
	}
	return v
}

// sectorPower is the s-th sector's received power (mW) under blocked by
// the link equation, the very float expression RSS evaluates for the
// sector's weights: the gain, then the dBm sum, pow10, and the sum over
// the paths in trace order.
func (l *Link) sectorPower(s int, blocked uint64) float64 {
	np := len(l.paths)
	var linear float64
	for p, c := range l.acc[s*np : (s+1)*np] {
		g := float64(behindPanelDBi)
		if !l.terms[p].behind {
			g = factorDB(c) + l.terms[p].elem
		}
		linear += pow10(l.dbm(p, g, blocked>>p&1 != 0) / 10)
	}
	return linear
}

// Sweep performs a sector-level sweep: it returns the codebook sector
// delivering the highest actual RSS (through whatever paths exist,
// including reflections around a blocked LOS) and that RSS, the lowest
// index among equals. This is what 802.11ad SLS training measures, and it
// is why real links survive blockage by falling back to reflected paths.
//
//vollint:hotpath
func (l *Link) Sweep(blocked uint64) (Sector, float64) {
	i := l.row(blocked)
	if i >= 0 && l.swept[i] > 0 {
		s := l.swept[i] - 1
		return l.codebook.Sectors[s], l.exactAt(i, s, blocked)
	}
	ns := len(l.codebook.Sectors)
	top := math.Inf(-1)
	for s := 0; s < ns; s++ {
		if v := l.rankAt(i, s, blocked); v > top {
			top = v
		}
	}
	best, bestRSS := -1, math.Inf(-1)
	for s := 0; s < ns; s++ {
		if !contends(l.rankAt(i, s, blocked), top) {
			continue
		}
		if v := l.exactAt(i, s, blocked); v > bestRSS {
			best, bestRSS = s, v
		}
	}
	if best < 0 {
		return Sector{Index: -1}, bestRSS
	}
	if i >= 0 {
		l.swept[i] = best + 1
	}
	return l.codebook.Sectors[best], bestRSS
}

// BestCommonSector returns the sector of cb whose weakest receiver's RSS
// is the highest, and that RSS: the best one beam of the codebook can do
// for a multicast group. The group has n receivers; member(i) returns the
// i-th one's link, built with cb, and its blocked mask. The lowest index
// wins among equals; an empty codebook gives -1 and -Inf, an empty group
// sector 0 and +Inf. Like Sweep it ranks the sectors, by their weakest
// member's ranked power, and evaluates the members' SectorRSS only for
// the sectors that contend, so sector and RSS are those of comparing
// every sector's minimum SectorRSS.
func BestCommonSector(cb *Codebook, n int, member func(i int) (*Link, uint64)) (int, float64) {
	top := math.Inf(-1)
	for s := range cb.Sectors {
		b := math.Inf(1)
		for i := 0; i < n && b > top; i++ { // past top, s cannot raise it
			l, blocked := member(i)
			if v := l.rank(s, blocked); v < b {
				b = v
			}
		}
		if b > top {
			top = b
		}
	}
	best, bestMin := -1, math.Inf(-1)
sector:
	for s := range cb.Sectors {
		for i := 0; i < n; i++ { // the weakest contends when every member does
			if l, blocked := member(i); !contends(l.rank(s, blocked), top) {
				continue sector
			}
		}
		m := math.Inf(1)
		for i := 0; i < n; i++ {
			l, blocked := member(i)
			if v := l.SectorRSS(s, blocked); v < m {
				m = v
			}
		}
		if m > bestMin {
			best, bestMin = s, m
		}
	}
	return best, bestMin
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
// path (lowest loss per meter), preferring unblocked paths: Link.BestPathDir
// toward rx under the channel's current bodies. This is what proactive
// beam switching steers to when the LOS is predicted blocked.
func (r *Radio) BestPathDir(rx geom.Vec3) (geom.Vec3, bool) {
	l := r.Link(nil, rx)
	return l.BestPathDir(l.BlockedBy(r.Channel.Bodies))
}

// BestPathDir returns the departure direction of the path that alone
// would deliver the highest RSS under an ideally steered beam (array gain
// is direction-independent at peak), the paths in the blocked mask paying
// the body loss; the first in trace order among equals. ok is false when
// the link has no path.
func (l *Link) BestPathDir(blocked uint64) (dir geom.Vec3, ok bool) {
	bestScore := math.Inf(-1)
	for p := range l.paths {
		if score := -l.terms[p].fspl - l.loss(p, blocked>>p&1 != 0); score > bestScore {
			bestScore, dir, ok = score, l.paths[p].Dir, true
		}
	}
	return dir, ok
}
