package phy

import (
	"math"
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
// holds Sweep, every SectorRSS and a two-member BestCommonSector to the
// pre-kernel formula with ==.
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
		peer := geom.V(wrap(b2x, -4.9, 4.9), 1.5, wrap(b2z, -3.9, 3.9))
		links := [2]*Link{r.Link(cb, rx), r.Link(cb, peer)}
		masks := [2]uint64{links[0].BlockedBy(ch.Bodies), links[1].BlockedBy(ch.Bodies)}
		gs, gmin := BestCommonSector(cb, 2, func(k int) (*Link, uint64) { return links[k], masks[k] })
		ws, wmin := -1, math.Inf(-1)
		for s, sec := range cb.Sectors {
			if m := math.Min(refRSS(r, sec.W, rx), refRSS(r, sec.W, peer)); m > wmin {
				ws, wmin = s, m
			}
		}
		if gs != ws || gmin != wmin {
			t.Fatalf("rx %v peer %v: BestCommonSector %d %v, reference %d %v", rx, peer, gs, gmin, ws, wmin)
		}
	})
}
