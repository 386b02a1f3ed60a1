package phy

import (
	"math"
	"math/bits"

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
// when built with a codebook, a sector table that holds each sector's
// array factor along each path once a sweep or an evaluation has needed
// it. Body blockage is a bit mask over the paths (bit p = a body stands
// in path p), supplied at evaluation time.
//
// Building a Link costs one ray trace and one steering vector per path,
// and two pow10 per path. Evaluating it costs one dot product per path
// (RSS). A sector sweep (Sweep, BestCommonSector) fills the sector table
// path by path, strongest path first, only for the sectors whose bounds
// still let them win, ranks the sectors left by a multiply-add per path,
// and runs the link equation only for the sectors whose rank comes
// within rankGuard of the best; SectorRSS fills and evaluates the sector
// asked. Nothing allocates. Every value is bit-identical to tracing and
// steering afresh per call: the float expressions and their order are
// the same, only hoisted, and the bounds and the ranking decide only
// which values are computed (DESIGN.md §14). So a Link may be kept for as
// long as its receiver stays put (BuiltFor says whether it has). A Link
// holds evaluation scratch, so it is not safe for concurrent use.
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
	// Σ_i (w_i·e_i)·a_p,i, at acc[p*ns+s] once bit p*ns+s of filled is
	// set (Reset sets it only for a path that leaves behind the panel,
	// whose entry is 1: the weights do not change its gain), and the
	// factor of path p's received power (mW) that no weight changes,
	// 10^((Tx + elem_p + Rx − FSPL_p − L_p)/10), at k[2p] when p is clear
	// and k[2p+1] when it is body-blocked. A sector's ranked power,
	// Σ_p max(|acc|², 1e−18)·k, is its received power up to rounding.
	codebook *Codebook
	rad      *radiatedSectors // the codebook's radiated weights and peak bounds on the array
	acc      []complex128
	filled   []uint64
	k        []float64

	// Swept rows, one under each of the first len(rowMasks) masks evaluated
	// since Reset: row i (under rowMasks[i]) holds the ranked power of each
	// sector ranked so far at ranked[i*sectors:], the RSS (dBm) of each
	// sector evaluated so far at exact[i*sectors:] (NaN for the rest of
	// both), and its Sweep's sector plus one at swept[i] (0 before its
	// first Sweep). A planner asks one link about a handful of masks per
	// frame — one per set of other bodies in its path — and about each of
	// them many times. A mask past the memo's capacity is ranked and
	// evaluated afresh, which gives the same floats.
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
// reusing its buffers. It fills no array factor: the sweeps and
// evaluations fill the sector table as they need it.
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
	l.codebook, l.rad = cb, nil
	if cb == nil {
		return
	}
	l.rad = cb.radiatedOn(a)
	np, ns := len(l.paths), len(cb.Sectors)
	l.nrows = 0
	if cap(l.acc) < ns*np {
		l.acc = make([]complex128, ns*np)
	}
	l.acc = l.acc[:ns*np]
	if words := (ns*np + 63) / 64; cap(l.filled) < words {
		l.filled = make([]uint64, words)
	} else {
		l.filled = l.filled[:words]
		clear(l.filled)
	}
	rows := len(l.rowMasks) * ns
	size := 2*np + 2*rows
	if cap(l.k) < size {
		l.k = make([]float64, size) // one slab: k, then the ranked and the exact rows
	}
	l.k = l.k[:size]
	l.ranked, l.exact = l.k[2*np:2*np+rows:2*np+rows], l.k[2*np+rows:size:size]
	l.k = l.k[:2*np]
	for p, t := range l.terms {
		g := t.elem
		if t.behind {
			g = behindPanelDBi
			for s := 0; s < ns; s++ {
				l.acc[p*ns+s] = 1
				l.mark(s, p)
			}
		}
		l.k[2*p] = pow10(l.dbm(p, g, false) / 10)
		l.k[2*p+1] = pow10(l.dbm(p, g, true) / 10)
	}
}

// The table runs path-major, a column per path: a sweep fills and reads
// it column by column, and a run of 64 sectors' filled bits for one path
// is one word's worth, whatever its offset.

// has reports whether the s-th sector's entry for path p is filled.
func (l *Link) has(s, p int) bool {
	e := p*len(l.codebook.Sectors) + s
	return l.filled[e>>6]>>(e&63)&1 != 0
}

// mark records that the s-th sector's entry for path p is filled.
func (l *Link) mark(s, p int) {
	e := p*len(l.codebook.Sectors) + s
	l.filled[e>>6] |= 1 << (e & 63)
}

// column returns the mask of the sectors of block b (sectors 64b to
// 64b+63, as many as there are) whose entries for path p are filled.
func (l *Link) column(p, b int) uint64 {
	ns := len(l.codebook.Sectors)
	e := p*ns + 64*b
	w, off := e>>6, e&63
	v := l.filled[w] >> off
	if off != 0 && w+1 < len(l.filled) {
		v |= l.filled[w+1] << (64 - off)
	}
	return v & blockMask(ns, b)
}

// blockMask is the mask of the sectors of block b among ns.
func blockMask(ns, b int) uint64 { return ^uint64(0) >> (64 - min(64, ns-64*b)) }

// rows returns the mask of the sectors of block b whose rows of the
// table are filled whole.
func (l *Link) rows(b int) uint64 {
	m := blockMask(len(l.codebook.Sectors), b)
	for p, t := range l.terms {
		if !t.behind {
			m &= l.column(p, b)
		}
	}
	return m
}

// entries fills each entry of the s-th sector's row of the table that it
// lacks, by one arrayFactor sum.
func (l *Link) entries(s int) {
	ns, ne := len(l.codebook.Sectors), l.array.Elements()
	for p := range l.paths {
		if !l.has(s, p) {
			l.acc[p*ns+s] = arrayFactor(l.rad.w[s], l.sv[p*ne:(p+1)*ne])
			l.mark(s, p)
		}
	}
}

// fill fills column p of the table for the sectors of block b whose bits
// are set in alive and which lack it, two sectors per arrayFactor2 pass:
// each of its sums is the very float one arrayFactor gives, and the two
// dependency chains overlap (DESIGN.md §14). Two sectors whose weights
// differ in length go one sum each, and an odd one out is a one-sector
// tail.
func (l *Link) fill(p, b int, alive uint64) {
	ne := l.array.Elements()
	sv, w, col := l.sv[p*ne:(p+1)*ne], l.rad.w, l.acc[p*len(l.codebook.Sectors):]
	first := -1
	for m := alive &^ l.column(p, b); m != 0; m &= m - 1 {
		s := 64*b + bits.TrailingZeros64(m)
		if first < 0 {
			first = s
			continue
		}
		if len(w[first]) == len(w[s]) {
			col[first], col[s] = arrayFactor2(w[first], w[s], sv)
		} else {
			col[first], col[s] = arrayFactor(w[first], sv), arrayFactor(w[s], sv)
		}
		l.mark(first, p)
		l.mark(s, p)
		first = -1
	}
	if first >= 0 {
		col[first] = arrayFactor(w[first], sv)
		l.mark(first, p)
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

// pruneSlack is the relative slack a sector's upper bound carries against
// the roundings of the bounds and of the ranked powers they bound: those
// come to under 150 u ≈ 1.7e−14 (DESIGN.md §14). pruneStop is how few
// sectors may be left before a sweep stops filling the table column by
// column and fills their rows whole.
const (
	pruneSlack = 1e-12
	pruneStop  = 3
)

// survives reports whether a sector whose ranked power is at most upper
// may still contend when some sector's ranked power is at least best.
func survives(upper, best float64) bool { return contends(upper*(1+pruneSlack), best) }

// SectorRSS is RSS for the s-th sector of the link's codebook.
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
		ranked[s], exact[s] = math.NaN(), math.NaN()
	}
	return i
}

// rankAt is rank with blocked's row already looked up (i = -1: none),
// ranking the sector on its first use under the row's mask.
func (l *Link) rankAt(i, s int, blocked uint64) float64 {
	if i < 0 {
		return l.rankedPower(s, blocked)
	}
	x := &l.ranked[i*len(l.codebook.Sectors)+s]
	if math.IsNaN(*x) {
		*x = l.rankedPower(s, blocked)
	}
	return *x
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

// kAt is path p's weight-independent power factor under blocked.
func (l *Link) kAt(p int, blocked uint64) float64 { return l.k[2*p+int(blocked>>p&1)] }

// rankedPower is Σ_p max(|acc|², 1e−18)·k over the s-th sector's paths
// under blocked: its received power (mW) within rankBound, relative.
func (l *Link) rankedPower(s int, blocked uint64) float64 {
	l.entries(s)
	ns := len(l.codebook.Sectors)
	var v float64
	for p := range l.paths {
		c := l.acc[p*ns+s]
		v += max(real(c)*real(c)+imag(c)*imag(c), 1e-18) * l.kAt(p, blocked)
	}
	return v
}

// sectorPower is the s-th sector's received power (mW) under blocked by
// the link equation, the very float expression RSS evaluates for the
// sector's weights: the gain, then the dBm sum, pow10, and the sum over
// the paths in trace order.
func (l *Link) sectorPower(s int, blocked uint64) float64 {
	l.entries(s)
	ns := len(l.codebook.Sectors)
	var linear float64
	for p := range l.paths {
		g := float64(behindPanelDBi)
		if !l.terms[p].behind {
			g = factorDB(l.acc[p*ns+s]) + l.terms[p].elem
		}
		linear += pow10(l.dbm(p, g, blocked>>p&1 != 0) / 10)
	}
	return linear
}

// cut is one member's state after round r of a pruned sweep: the paths
// whose columns the round has filled (the r strongest that the weights
// change, by k under the member's mask, the first in trace order among
// equals) with their k, the path the next round fills (-1: none left),
// and the summed k of the paths behind the panel and of the paths whose
// columns are not yet filled.
type cut struct {
	member, r  int // which member's cut after which round (-1: none)
	n, next    int
	path       [maxPaths]uint8
	k          [maxPaths]float64
	behind, un float64
}

// cutAt sets c to l's cut after round r under blocked, extending the
// paths c holds: none, or l's first ones under blocked.
func (l *Link) cutAt(c *cut, blocked uint64, r int) {
	var known uint64
	for _, p := range c.path[:c.n] {
		known |= 1 << p
	}
	for {
		c.next = -1
		var top float64
		for p, t := range l.terms {
			if k := l.kAt(p, blocked); !t.behind && known>>p&1 == 0 && (c.next < 0 || k > top) {
				c.next, top = p, k
			}
		}
		if c.next < 0 || c.n == r {
			break
		}
		known |= 1 << c.next
		c.path[c.n], c.k[c.n] = uint8(c.next), top
		c.n++
	}
	c.behind, c.un = 0, 0
	for p, t := range l.terms {
		switch {
		case t.behind:
			c.behind += l.kAt(p, blocked)
		case known>>p&1 == 0:
			c.un += l.kAt(p, blocked)
		}
	}
	c.r = r
}

// group is the receivers a sweep serves: one link under one mask (Sweep),
// or the members of a multicast group (BestCommonSector), each link
// built with the codebook swept. A sector's value to the group is its
// weakest member's ranked power.
type group struct {
	n      int
	member func(i int) (*Link, uint64) // nil: the link and mask below
	link   *Link
	mask   uint64
}

// at returns the i-th member's link and mask.
func (g *group) at(i int) (*Link, uint64) {
	if g.member == nil {
		return g.link, g.mask
	}
	return g.member(i)
}

// cuts holds the members' cuts of one round, member i's in slot i mod
// its length; a larger group's members share slots and are cut again.
type cuts [8]cut

// cut returns member i's link and its cut after round r.
func (g *group) cut(cs *cuts, i, r int) (*Link, *cut) {
	l, blocked := g.at(i)
	c := &cs[i%len(cs)]
	if c.member != i || c.r > r {
		c.member, c.n = i, 0
	} else if c.r == r {
		return l, c
	}
	l.cutAt(c, blocked, r)
	return l, c
}

// narrow fills the sector table of every member for a sweep over ns
// sectors, strongest path first, only for the sectors that can still
// win. Round r fills the r-th strongest path's column of each member
// (its own order, under its own mask) for the sectors alive, two per
// pass. From the second round on, a sector is dropped once the weakest of
// its members' upper bounds lies below (1 − rankGuard) times the best
// weakest lower bound met so far (survives): its ranked power can then
// neither be the best nor contend with it. Once at most pruneStop sectors
// are alive, or every column is filled, the sectors alive get their rows
// filled whole. So every sector whose ranked power may contend has every
// entry filled in every member's table (DESIGN.md §14 proves the
// bounds); so may others, filled earlier.
func (g *group) narrow(ns int) {
	widest := 0
	for i := 0; i < g.n; i++ {
		l, _ := g.at(i)
		w := 0
		for _, t := range l.terms {
			if !t.behind {
				w++
			}
		}
		widest = max(widest, w)
	}
	var (
		lo, hi [64]float64
		cs     cuts
		kept   [4]uint64 // the first blocks' sectors alive after the last round
	)
	for i := range cs {
		cs[i].member = -1
	}
	best, alive := math.Inf(-1), ns
	for r := 0; ; r++ {
		final := alive <= pruneStop || r >= widest
		alive = 0
		for b := 0; 64*b < ns; b++ {
			live := blockMask(ns, b)
			if b < len(kept) && r > 0 { // a dropped sector stays dropped
				live = kept[b]
			}
			if r > 0 { // before the first column every sector may win
				live = g.bound(&cs, live, b, r, &lo, &hi)
				for m := live; m != 0; m &= m - 1 {
					if v := lo[bits.TrailingZeros64(m)]; v > best {
						best = v
					}
				}
				for m := live; m != 0; m &= m - 1 {
					if j := bits.TrailingZeros64(m); !survives(hi[j], best) {
						live &^= 1 << j
					}
				}
			}
			alive += bits.OnesCount64(live)
			if b < len(kept) {
				kept[b] = live
			}
			for i := 0; i < g.n; i++ {
				l, c := g.cut(&cs, i, r)
				if final {
					for m := live; m != 0; m &= m - 1 {
						l.entries(64*b + bits.TrailingZeros64(m))
					}
				} else if c.next >= 0 {
					l.fill(c.next, b, live)
				}
			}
		}
		if final {
			return
		}
	}
}

// bound sets lo and hi, for the sectors of block b in cand that have
// every member's columns of round r filled, to the weakest member's lower
// and upper bounds after the round, and returns their mask. The group
// must have a member; cs is scratch.
func (g *group) bound(cs *cuts, cand uint64, b, r int, lo, hi *[64]float64) uint64 {
	var v [64]float64
	for i := 0; i < g.n && cand != 0; i++ {
		l, c := g.cut(cs, i, r)
		for _, p := range c.path[:c.n] {
			cand &= l.column(int(p), b)
		}
		for m := cand; m != 0; m &= m - 1 {
			v[bits.TrailingZeros64(m)&63] = c.behind
		}
		for q, p := range c.path[:c.n] {
			col, k := l.acc[int(p)*len(l.codebook.Sectors)+64*b:], c.k[q]
			for m := cand; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m) & 63
				a := col[j]
				f := real(a)*real(a) + imag(a)*imag(a)
				if f < 1e-18 {
					f = 1e-18
				}
				v[j] += f * k
			}
		}
		peak := l.rad.peak[64*b:]
		for m := cand; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m) & 63
			if i == 0 || v[j] < lo[j] {
				lo[j] = v[j]
			}
			if h := v[j] + peak[j]*c.un; i == 0 || h < hi[j] {
				hi[j] = h
			}
		}
	}
	return cand
}

// rows returns the mask of the sectors of block b whose rows are filled
// whole in every member's table.
func (g *group) rows(ns, b int) uint64 {
	m := blockMask(ns, b)
	for i := 0; i < g.n; i++ {
		l, _ := g.at(i)
		m &= l.rows(b)
	}
	return m
}

// weakest returns the s-th sector's weakest member's ranked power.
func (g *group) weakest(s int) float64 {
	v := math.Inf(1)
	for i := 0; i < g.n; i++ {
		l, blocked := g.at(i)
		if r := l.rank(s, blocked); r < v {
			v = r
		}
	}
	return v
}

// Sweep performs a sector-level sweep: it returns the codebook sector
// delivering the highest actual RSS (through whatever paths exist,
// including reflections around a blocked LOS) and that RSS, the lowest
// index among equals. This is what 802.11ad SLS training measures, and it
// is why real links survive blockage by falling back to reflected paths.
func (l *Link) Sweep(blocked uint64) (Sector, float64) {
	i := l.row(blocked)
	if i >= 0 && l.swept[i] > 0 {
		s := l.swept[i] - 1
		return l.codebook.Sectors[s], l.exactAt(i, s, blocked)
	}
	ns := len(l.codebook.Sectors)
	g := group{n: 1, link: l, mask: blocked}
	g.narrow(ns)
	top := math.Inf(-1)
	for b := 0; 64*b < ns; b++ {
		for m := l.rows(b); m != 0; m &= m - 1 {
			if v := l.rankAt(i, 64*b+bits.TrailingZeros64(m), blocked); v > top {
				top = v
			}
		}
	}
	best, bestRSS := -1, math.Inf(-1)
	for b := 0; 64*b < ns; b++ {
		for m := l.rows(b); m != 0; m &= m - 1 {
			s := 64*b + bits.TrailingZeros64(m)
			if !contends(l.rankAt(i, s, blocked), top) {
				continue
			}
			if v := l.exactAt(i, s, blocked); v > bestRSS {
				best, bestRSS = s, v
			}
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
// sector 0 and +Inf. Like Sweep it fills the members' tables only for the
// sectors whose bounds let them win, ranks those by their weakest
// member's ranked power, and evaluates the members' SectorRSS only for
// the sectors that contend, so sector and RSS are those of comparing
// every sector's minimum SectorRSS.
func BestCommonSector(cb *Codebook, n int, member func(i int) (*Link, uint64)) (int, float64) {
	g := group{n: n, member: member}
	ns := len(cb.Sectors)
	g.narrow(ns)
	top := math.Inf(-1)
	for b := 0; 64*b < ns; b++ {
		for m := g.rows(ns, b); m != 0; m &= m - 1 {
			if v := g.weakest(64*b + bits.TrailingZeros64(m)); v > top {
				top = v
			}
		}
	}
	best, bestMin := -1, math.Inf(-1)
	for b := 0; 64*b < ns; b++ {
		for m := g.rows(ns, b); m != 0; m &= m - 1 {
			s := 64*b + bits.TrailingZeros64(m)
			if !contends(g.weakest(s), top) {
				continue // the weakest contends when every member does
			}
			low := math.Inf(1)
			for i := 0; i < n; i++ {
				l, blocked := member(i)
				if v := l.SectorRSS(s, blocked); v < low {
					low = v
				}
			}
			if low > bestMin {
				best, bestMin = s, low
			}
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
