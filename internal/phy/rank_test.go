package phy

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"volcast/internal/geom"
)

// contenders returns how many sectors besides the best ranked one a
// sweep of l under blocked evaluates exactly, and the best ranked one
// (the lowest index among equals).
func contenders(l *Link, blocked uint64) (n, top int) {
	top, n = 0, -1
	for s := range l.codebook.Sectors {
		if l.rank(s, blocked) > l.rank(top, blocked) {
			top = s
		}
	}
	for s := range l.codebook.Sectors {
		if contends(l.rank(s, blocked), l.rank(top, blocked)) {
			n++
		}
	}
	return n, top
}

// sameSweep requires l's Sweep under the channel's bodies, and every
// SectorRSS after it, to equal the pre-kernel formula's with ==. It
// returns the sweep's contenders, and whether the best ranked sector
// alone would have been the wrong answer.
func sameSweep(t testing.TB, r *Radio, cb *Codebook, rx geom.Vec3) (guarded int, saved bool) {
	t.Helper()
	l := r.Link(cb, rx)
	mask := l.BlockedBy(r.Channel.Bodies)
	ws, wrss := refSweepBestSector(r, cb, rx)
	if gs, grss := l.Sweep(mask); gs.Index != ws.Index || grss != wrss {
		t.Fatalf("rx %v: Sweep %d %v, reference %d %v", rx, gs.Index, grss, ws.Index, wrss)
	}
	for s, sec := range cb.Sectors {
		if got, want := l.SectorRSS(s, mask), refRSS(r, sec.W, rx); got != want {
			t.Fatalf("rx %v sector %d: SectorRSS %v, reference %v", rx, s, got, want)
		}
	}
	guarded, top := contenders(l, mask)
	return guarded, top != ws.Index
}

// TestRankWithinBound measures the ranking's relative error against the
// link equation's sum, |rankedPower/sectorPower − 1|, over every sector of
// the differential draws under no, their own and every path blocked, and
// requires it under rankBound, which DESIGN.md §14 derives; the guard is
// rankGuard, far above it.
func TestRankWithinBound(t *testing.T) {
	if rankBound*1000 > rankGuard {
		t.Fatalf("rankBound %g is not far below rankGuard %g", rankBound, rankGuard)
	}
	rnd := rand.New(rand.NewSource(20210831))
	worst := 0.0
	for i := 0; i < 120; i++ {
		r, cb, rx := diffWorld(t, rnd, i)
		l := r.Link(cb, rx)
		for _, mask := range []uint64{0, l.BlockedBy(r.Channel.Bodies), 1<<len(l.paths) - 1} {
			for s := range cb.Sectors {
				if e := math.Abs(l.rankedPower(s, mask)/l.sectorPower(s, mask) - 1); !(e <= worst) {
					worst = e
				}
			}
		}
	}
	if !(worst <= rankBound) {
		t.Fatalf("max |ranked/exact − 1| = %.3g, bound %.3g", worst, rankBound)
	}
	t.Logf("max |ranked/exact − 1| = %.3g (bound %.3g, guard %.3g)", worst, rankBound, rankGuard)
}

// idealArray is the default 8×4 array without the COTS imperfections, so
// that mirrored sectors radiate mirrored patterns.
func idealArray() *Array {
	return &Array{NX: 8, NY: 4, SpacingWl: 0.5, ElementGainDBi: 5, Pos: geom.V(0, 2.5, DefaultRoom().Bounds.Min.Z), Rot: geom.QuatIdent()}
}

// withCopies returns cb with its sector best copied to the front and again
// right behind the original, every sector indexed by its new position.
func withCopies(cb *Codebook, best int) *Codebook {
	out := &Codebook{Sectors: []Sector{cb.Sectors[best]}}
	out.Sectors = append(out.Sectors, cb.Sectors[:best+1]...)
	out.Sectors = append(out.Sectors, cb.Sectors[best])
	out.Sectors = append(out.Sectors, cb.Sectors[best+1:]...)
	for s := range out.Sectors {
		out.Sectors[s].Index = s
	}
	return out
}

// TestSweepTiesMatchReference holds the sweeps to the pre-kernel formula
// where the ranking cannot tell sectors apart. Exact ties: a codebook
// with the best sector copied bit for bit, to the front and behind
// itself, must give the lowest index, as the reference's strict > does,
// from Sweep and from BestCommonSector over one and two members. Near
// ties: on an array without imperfections, receivers on the mirror plane
// of its symmetric sectors see each mirrored pair within rounding. Both
// must make the guard admit more than the best ranked sector.
func TestSweepTiesMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	guarded := 0
	for i := 0; i < 24; i++ {
		r, cb, rx := diffWorld(t, rnd, i)
		best, _ := refSweepBestSector(r, cb, rx)
		if best.Index < 0 {
			continue
		}
		dup := withCopies(cb, best.Index)
		g, _ := sameSweep(t, r, dup, rx)
		guarded += g
		l := r.Link(dup, rx)
		mask := l.BlockedBy(r.Channel.Bodies)
		if got, _ := l.Sweep(mask); got.Index != 0 {
			t.Fatalf("draw %d: Sweep picks copy %d of sector %d, want 0", i, got.Index, best.Index)
		}
		other := r.Link(dup, geom.V(rx.X/2, rx.Y, rx.Z/2))
		omask := other.BlockedBy(r.Channel.Bodies)
		for n, members := range [][]*Link{{l}, {l, other}} {
			masks := []uint64{mask, omask}
			gs, gmin := BestCommonSector(dup, len(members), func(k int) (*Link, uint64) { return members[k], masks[k] })
			ws, wmin := -1, math.Inf(-1)
			for s, sec := range dup.Sectors {
				m := refRSS(r, sec.W, rx)
				if n == 1 {
					m = math.Min(m, refRSS(r, sec.W, other.Rx()))
				}
				if m > wmin {
					ws, wmin = s, m
				}
			}
			if gs != ws || gmin != wmin {
				t.Fatalf("draw %d, %d members: BestCommonSector %d %v, reference %d %v", i, n+1, gs, gmin, ws, wmin)
			}
		}
	}
	exact := guarded
	if exact == 0 {
		t.Fatal("no copied sector contended")
	}

	a := idealArray()
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	saved := 0
	for i := 0; i < 40; i++ {
		ch := NewChannel(DefaultRoom())
		ch.SecondOrder = i%2 == 1
		if i%4 >= 2 { // a pair of bodies that the mirror maps onto each other
			x, z := 0.5+rnd.Float64()*2, rnd.Float64()*6-3
			ch.Bodies = []Body{DefaultBody(geom.V(x, 0, z)), DefaultBody(geom.V(-x, 0, z))}
		}
		g, s := sameSweep(t, NewRadio(a, ch), cb, geom.V(0, 1+rnd.Float64(), rnd.Float64()*7-3.5))
		guarded += g
		if s {
			saved++
		}
	}
	if guarded == exact || saved == 0 {
		t.Fatalf("%d mirrored sectors contended, %d sweeps were not the best ranked sector's: both must be positive", guarded-exact, saved)
	}
	t.Logf("contenders beside the best ranked sector: %d from copies, %d from mirrored sectors; %d of those sweeps picked another than the best ranked", exact, guarded-exact, saved)
}

// FuzzSweepMatchesReference wraps a receiver into the room and up to three
// bodies onto its floor (values inside stay as they are), with
// second-order reflections on or off and the array half a metre off the
// wall, so that a receiver behind it sees paths behind the panel. It
// holds Sweep, every SectorRSS and a two- and a three-member
// BestCommonSector to the pre-kernel formula with ==. The committed
// corpus includes a body on the line of sight, so that a reflection is
// the strongest path and the sweeps fill the table out of trace order,
// and second-order reflections (up to 31 paths).
func FuzzSweepMatchesReference(f *testing.F) {
	f.Add(1.0, 1.5, 2.0, 0.4, -1.0, -1.5, 0.5, uint8(2), false)
	f.Add(0.0, 1.2, 1.0, 0.0, 0.0, 0.0, 0.0, uint8(0), true)
	f.Add(-3.0, 1.8, -3.8, 2.0, -2.0, 0.0, 0.0, uint8(1), true)
	room := DefaultRoom()
	a, err := NewArray(8, 4, geom.V(0, 2.5, room.Bounds.Min.Z+0.5), geom.QuatIdent())
	if err != nil {
		f.Fatal(err)
	}
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	wrap := func(v, lo, hi float64) float64 {
		if v >= lo && v <= hi {
			return v
		}
		m := math.Mod(v-lo, hi-lo)
		if m < 0 {
			m += hi - lo
		}
		return lo + m
	}
	f.Fuzz(func(t *testing.T, x, y, z, b1x, b1z, b2x, b2z float64, bodies uint8, second bool) {
		for _, v := range []float64{x, y, z, b1x, b1z, b2x, b2z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		ch := NewChannel(room)
		ch.SecondOrder = second
		floor := []geom.Vec3{geom.V(b1x, 0, b1z), geom.V(b2x, 0, b2z), geom.V(b1z, 0, b2x)}
		for _, c := range floor[:bodies%4] {
			ch.Bodies = append(ch.Bodies, DefaultBody(geom.V(wrap(c.X, -4.9, 4.9), 0, wrap(c.Z, -3.9, 3.9))))
		}
		r := NewRadio(a, ch)
		rx := geom.V(wrap(x, -4.9, 4.9), wrap(y, 0.1, 2.9), wrap(z, -3.9, 3.9))
		sameSweep(t, r, cb, rx)
		pos := [3]geom.Vec3{
			rx,
			geom.V(wrap(b2x, -4.9, 4.9), 1.5, wrap(b2z, -3.9, 3.9)),
			geom.V(wrap(b1x+b2x, -4.9, 4.9), 1.2, wrap(b1z-b2z, -3.9, 3.9)),
		}
		for n := 2; n <= 3; n++ {
			var (
				links [3]*Link
				masks [3]uint64
			)
			for k := range n {
				links[k] = r.Link(cb, pos[k])
				masks[k] = links[k].BlockedBy(ch.Bodies)
			}
			gs, gmin := BestCommonSector(cb, n, func(k int) (*Link, uint64) { return links[k], masks[k] })
			ws, wmin := -1, math.Inf(-1)
			for s, sec := range cb.Sectors {
				m := math.Inf(1)
				for _, p := range pos[:n] {
					m = math.Min(m, refRSS(r, sec.W, p))
				}
				if m > wmin {
					ws, wmin = s, m
				}
			}
			if gs != ws || gmin != wmin {
				t.Fatalf("members %v: BestCommonSector %d %v, reference %d %v", pos[:n], gs, gmin, ws, wmin)
			}
		}
	})
}

// strongestFirst reports whether l's strongest path that the weights
// change, under blocked, comes after another such path in trace order:
// whether a sweep fills the table out of trace order.
func strongestFirst(l *Link, blocked uint64) bool {
	var c cut
	l.cutAt(&c, blocked, 0)
	for p, t := range l.terms {
		if !t.behind {
			return c.next != p
		}
	}
	return false
}

// TestPeakBoundsEntries measures every computed max(re² + im², 1e−18) of
// the sector table against its sector's peak bound, over the differential
// draws (every entry filled) and over an array without imperfections with
// a receiver along each sector's design direction, where the bound is
// nearly met: the worst ratio must not exceed 1. It also measures the
// steering vectors' |a_i| − 1, which the bound's derivation takes to be at
// most 2u (DESIGN.md §14).
func TestPeakBoundsEntries(t *testing.T) {
	const u = 0x1p-53
	worst, steer := 0.0, 0.0
	measure := func(l *Link) {
		ns := len(l.codebook.Sectors)
		for s := range ns {
			l.entries(s)
			for p, term := range l.terms {
				if term.behind {
					continue
				}
				a := l.acc[p*ns+s]
				if e := max(real(a)*real(a)+imag(a)*imag(a), 1e-18) / l.rad.peak[s]; !(e <= worst) {
					worst = e
				}
			}
		}
		for _, a := range l.sv { // |a|² − 1 exactly: ≈ 2(|a| − 1)
			re, im := new(big.Float).SetFloat64(real(a)), new(big.Float).SetFloat64(imag(a))
			re.SetPrec(256).Mul(re, re)
			im.SetPrec(256).Mul(im, im)
			d, _ := re.Add(re, im).Sub(re, big.NewFloat(1)).Float64()
			steer = max(steer, d/2/u)
		}
	}
	rnd := rand.New(rand.NewSource(20210831))
	for i := 0; i < 120; i++ {
		r, cb, rx := diffWorld(t, rnd, i)
		measure(r.Link(cb, rx))
	}
	a := idealArray()
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	r := NewRadio(a, NewChannel(DefaultRoom()))
	near := 0.0
	for _, sec := range cb.Sectors {
		rx := a.Pos.Add(a.Rot.Rotate(geom.FromAzEl(sec.AzRad, sec.ElRad)).Scale(0.8))
		before := worst
		worst = 0
		measure(r.Link(cb, rx))
		near, worst = max(near, worst), max(before, worst)
	}
	if !(worst <= 1) {
		t.Fatalf("max |acc|²/peak = %v, above 1", worst)
	}
	if near < 1-1e-9 {
		t.Errorf("toward its design direction no sector came within 1e-9 of its peak bound (%v): the bound is not what it claims", near)
	}
	if steer > 2 {
		t.Errorf("max |a_i| − 1 = %v u, above the 2u the bound assumes", steer)
	}
	t.Logf("max |acc|²/peak = %.15f (1 − %.3g); max |a_i| − 1 = %.2g u", worst, 1-worst, steer)
}

// TestPruneKeepsContenders narrows fresh links for groups of 1–4 members
// of the differential draws, under no, their own, every and random paths
// blocked, and on an array without imperfections with a receiver on the
// mirror plane of its sectors whose in-plane paths are masked blocked, so
// that two mirrored reflections tie for the strongest path. The sectors
// the prune leaves with their rows whole must hold every sector that the
// full table's weakest ranked powers make a contender. It also holds the
// prune's rule, survives, at its edges: an upper bound exactly at the
// threshold, and one inside the guard below the best, survive.
func TestPruneKeepsContenders(t *testing.T) {
	rnd := rand.New(rand.NewSource(48))
	filled, entries, kept, contended := 0, 0, 0, 0
	check := func(t *testing.T, r *Radio, cb *Codebook, pos []geom.Vec3, masks []uint64) {
		t.Helper()
		ns := len(cb.Sectors)
		pruned := make([]*Link, len(pos))
		for k, p := range pos {
			pruned[k] = r.Link(cb, p)
		}
		g := group{n: len(pos), member: func(k int) (*Link, uint64) { return pruned[k], masks[k] }}
		g.narrow(ns)
		full := make([]*Link, len(pos))
		for k, p := range pos {
			full[k] = r.Link(cb, p)
		}
		weakest := func(s int) float64 {
			v := math.Inf(1)
			for k, l := range full {
				v = math.Min(v, l.rankedPower(s, masks[k]))
			}
			return v
		}
		top := math.Inf(-1)
		for s := range ns {
			top = math.Max(top, weakest(s))
		}
		for s := range ns {
			survived := g.rows(ns, s/64)>>(s%64)&1 != 0
			if survived {
				kept++
			}
			if contends(weakest(s), top) {
				contended++
				if !survived {
					t.Fatalf("members %v masks %#x: sector %d contends (%v against %v) but the prune dropped it", pos, masks, s, weakest(s), top)
				}
			}
		}
		for _, l := range pruned {
			for s := range ns {
				for p, term := range l.terms {
					if !term.behind {
						entries++
						if l.has(s, p) {
							filled++
						}
					}
				}
			}
		}
	}
	outOfOrder := 0
	for i := 0; i < 60; i++ {
		r, cb, rx := diffWorld(t, rnd, i)
		pos := []geom.Vec3{rx}
		for len(pos) < 4 {
			pos = append(pos, geom.V(rnd.Float64()*9-4.5, 1+rnd.Float64(), rnd.Float64()*7-3.5))
		}
		for n := 1; n <= 4; n++ {
			own := make([]uint64, n)
			for k, p := range pos[:n] {
				l := r.Link(cb, p)
				own[k] = l.BlockedBy(r.Channel.Bodies)
				if strongestFirst(l, own[k]) {
					outOfOrder++
				}
			}
			for _, pick := range []func(k int) uint64{
				func(int) uint64 { return 0 },
				func(k int) uint64 { return own[k] },
				func(int) uint64 { return ^uint64(0) >> (64 - maxPaths) },
				func(int) uint64 { return rnd.Uint64() },
			} {
				masks := make([]uint64, n)
				for k := range masks {
					masks[k] = pick(k)
				}
				check(t, r, cb, pos[:n], masks)
			}
		}
	}
	if outOfOrder == 0 {
		t.Error("no draw had its strongest path out of trace order")
	}

	// Mirrored reflections: every path but the side walls' blocked.
	a := idealArray()
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	for i := 0; i < 20; i++ {
		ch := NewChannel(DefaultRoom())
		ch.SecondOrder = i%2 == 1
		r := NewRadio(a, ch)
		rx := geom.V(0, 1+rnd.Float64(), rnd.Float64()*7-3.5)
		l := r.Link(cb, rx)
		var mask uint64
		for p, path := range l.paths {
			if d := path.Dir; path.Reflections != 1 || math.Abs(d.X) < 0.01 {
				mask |= 1 << p
			}
		}
		check(t, r, cb, []geom.Vec3{rx}, []uint64{mask})
	}

	// The rule at its edges, against best ranked powers of real sweeps.
	exact := 0
	for _, best := range []float64{1, 3.7e-7, 2.2e-9, 5.5e-11} {
		thr := best * (1 - rankGuard)
		upper := thr / (1 + pruneSlack)
		for upper*(1+pruneSlack) < thr {
			upper = math.Nextafter(upper, math.Inf(1))
		}
		for upper*(1+pruneSlack) > thr {
			upper = math.Nextafter(upper, math.Inf(-1))
		}
		if upper*(1+pruneSlack) == thr {
			exact++
			if !survives(upper, best) {
				t.Errorf("best %g: an upper bound exactly at the threshold is dropped", best)
			}
		}
		if !survives(math.Nextafter(upper, math.Inf(1)), best) {
			t.Errorf("best %g: an upper bound just above the threshold is dropped", best)
		}
		if survives(math.Nextafter(thr/(1+pruneSlack), 0)*(1-1e-15), best) {
			t.Errorf("best %g: an upper bound below the threshold survives", best)
		}
		if inside := best * (1 - rankGuard/2); !survives(inside, best) {
			t.Errorf("best %g: an upper bound inside the guard, below the best, is dropped", best)
		}
	}
	if exact == 0 {
		t.Error("no upper bound met the threshold exactly")
	}
	t.Logf("the prune filled %.1f%% of the weight-dependent entries; %d sectors kept whole for %d contenders", 100*float64(filled)/float64(entries), kept, contended)
}
