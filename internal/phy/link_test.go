package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"volcast/internal/geom"
)

// diffWorld draws one differential-test case: a radio in the default
// room (second-order reflections on or off), 0–6 bodies and a receiver.
// Every fifth receiver stands level with the panel behind it (the
// front-wall bounce then leaves with local u.Z <= 0), and every seventh
// array is turned away so the LOS does too.
func diffWorld(t testing.TB, rnd *rand.Rand, i int) (*Radio, *Codebook, geom.Vec3) {
	t.Helper()
	room := DefaultRoom()
	rot := geom.QuatIdent()
	if i%7 == 3 {
		rot = geom.AxisAngle(geom.V(0, 1, 0), geom.Rad(180))
	}
	a, err := NewArray(8, 4, geom.V(0, 2.5, room.Bounds.Min.Z+0.5*float64(i%2)), rot)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(room)
	ch.SecondOrder = i%2 == 1
	for b := rnd.Intn(7); b > 0; b-- {
		ch.Bodies = append(ch.Bodies, DefaultBody(geom.V(rnd.Float64()*8-4, 0, rnd.Float64()*7-3.5)))
	}
	rx := geom.V(rnd.Float64()*9-4.5, 1+rnd.Float64(), rnd.Float64()*7-3.5)
	if i%5 == 4 {
		rx.Z = a.Pos.Z
	}
	return NewRadio(a, ch), DefaultCodebook(a, DefaultCodebookConfig()), rx
}

// TestLinkMatchesReferenceBitExact pins the Link kernel — and every Radio
// method expressed through it — to the pre-kernel formula with ==.
func TestLinkMatchesReferenceBitExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(20210831))
	behind := 0
	for i := 0; i < 120; i++ {
		r, cb, rx := diffWorld(t, rnd, i)
		a := r.Array

		want := refPaths(r.Channel, a.Pos, rx)
		got := r.Channel.Paths(a.Pos, rx)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d paths, reference %d", i, len(got), len(want))
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("case %d path %d: %+v, reference %+v", i, p, got[p], want[p])
			}
			if a.localDir(want[p].Dir.Norm()).Z <= 0 {
				behind++
			}
		}

		ws, wrss := refSweepBestSector(r, cb, rx)
		gs, grss := r.SweepBestSector(cb, rx)
		if gs.Index != ws.Index || grss != wrss {
			t.Fatalf("case %d: sweep sector %d %v, reference %d %v", i, gs.Index, grss, ws.Index, wrss)
		}
		wd, wok := refBestPathDir(r, rx)
		if gd, gok := r.BestPathDir(rx); gd != wd || gok != wok {
			t.Fatalf("case %d: best path dir %v %v, reference %v %v", i, gd, gok, wd, wok)
		}

		// Codebook, steered, and custom quantised (2-bit, phase-only)
		// multi-lobe weights, through one reused Link and through Radio.
		l := r.Link(cb, rx)
		mask := l.BlockedBy(r.Channel.Bodies)
		other := geom.V(rnd.Float64()*8-4, 1.5, rnd.Float64()*6-3)
		steered := a.SteerTo(rx.Sub(a.Pos))
		twoLobe := a.SteerTo(other.Sub(a.Pos))
		for e := range twoLobe {
			twoLobe[e] += steered[e]
		}
		awvs := []AWV{
			cb.Sectors[rnd.Intn(cb.Len())].W,
			steered,
			QuantizeAWV(twoLobe, 2, true),
			steered[:a.Elements()/2], // shorter than the array: only those elements radiate
		}
		for k, w := range awvs {
			want := refRSS(r, w, rx)
			if got := l.RSS(w, mask); got != want {
				t.Fatalf("case %d awv %d: Link.RSS %v, reference %v", i, k, got, want)
			}
			if got := r.RSS(w, rx); got != want {
				t.Fatalf("case %d awv %d: Radio.RSS %v, reference %v", i, k, got, want)
			}
			if got, want := r.RSSLOSOnly(w, rx), refRSSLOSOnly(r, w, rx); got != want {
				t.Fatalf("case %d awv %d: RSSLOSOnly %v, reference %v", i, k, got, want)
			}
			if got, want := a.GainDBi(w, l.paths[0].Dir), refGainDBi(a, w, l.paths[0].Dir); got != want {
				t.Fatalf("case %d awv %d: GainDBi %v, reference %v", i, k, got, want)
			}
		}
		for s, sec := range cb.Sectors {
			if got, want := l.SectorRSS(s, mask), refRSS(r, sec.W, rx); got != want {
				t.Fatalf("case %d sector %d: SectorRSS %v, reference %v", i, s, got, want)
			}
		}

		// The mask is the only thing bodies change: the same Link under
		// another body set must match a fresh reference trace of it.
		r.Channel.Bodies = append([]Body{DefaultBody(geom.V(rx.X/2, 0, (rx.Z+a.Pos.Z)/2))}, r.Channel.Bodies...)
		ws, wrss = refSweepBestSector(r, cb, rx)
		if gs, grss := l.Sweep(l.BlockedBy(r.Channel.Bodies)); gs.Index != ws.Index || grss != wrss {
			t.Fatalf("case %d re-masked: sweep sector %d %v, reference %d %v", i, gs.Index, grss, ws.Index, wrss)
		}
	}
	if behind == 0 {
		t.Error("no case exercised a path leaving behind the panel")
	}
}

// TestLinkResetReusesBuffers checks that one Link rebuilt across radios
// and receivers (7-path and 31-path channels alternating, so its tables
// shrink and grow) gives the same answers as fresh ones, and that
// evaluating or rebuilding a warm Link allocates nothing.
func TestLinkResetReusesBuffers(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var l Link
	for i := 0; i < 12; i++ {
		r, cb, rx := diffWorld(t, rnd, i)
		l.Reset(r, &Codebook{Sectors: cb.Sectors[:40]}, rx) // a table under half the next one's size
		l.Reset(r, cb, rx)
		fresh := r.Link(cb, rx)
		mask := fresh.BlockedBy(r.Channel.Bodies)
		if l.BlockedBy(r.Channel.Bodies) != mask {
			t.Fatalf("draw %d: reused link's mask differs", i)
		}
		gs, grss := l.Sweep(mask)
		ws, wrss := fresh.Sweep(mask)
		if gs.Index != ws.Index || grss != wrss {
			t.Fatalf("draw %d: reused link sweeps %d %v, fresh %d %v", i, gs.Index, grss, ws.Index, wrss)
		}
	}
	r, cb, rx := diffWorld(t, rnd, 1)
	l.Reset(r, cb, rx)
	w := cb.Sectors[40].W
	mask := l.BlockedBy(r.Channel.Bodies)
	if n := testing.AllocsPerRun(50, func() { l.Sweep(mask) }); n != 0 {
		t.Errorf("Sweep allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { l.RSS(w, mask) }); n != 0 {
		t.Errorf("RSS allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { l.Reset(r, cb, rx) }); n != 0 {
		t.Errorf("Reset of a warm link allocates %v per run, want 0", n)
	}
}

// TestSweepMemoMatchesFresh drives one Link through more distinct blocked
// masks than its memo holds, in random order with repeats, some first
// asked through SectorRSS and some through Sweep, then Resets it to the
// next draw's receiver and goes on: every Sweep and every SectorRSS must
// equal a freshly built Link's with ==, and a full memo must still
// allocate nothing.
func TestSweepMemoMatchesFresh(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	var l Link
	full := 0
	for i := 0; i < 16; i++ {
		r, cb, rx := diffWorld(t, rnd, i)
		l.Reset(r, cb, rx)
		np := len(l.paths)
		masks := []uint64{0, l.BlockedBy(r.Channel.Bodies), ^uint64(0) >> (64 - np), 1 << 40}
		for len(masks) < 2*len(l.rowMasks) {
			masks = append(masks, rnd.Uint64()&(1<<np-1))
		}
		for k := 0; k < 6*len(masks); k++ {
			mask := masks[rnd.Intn(len(masks))]
			fresh := r.Link(cb, rx)
			if rnd.Intn(2) == 0 {
				gs, grss := l.Sweep(mask)
				ws, wrss := fresh.Sweep(mask)
				if gs.Index != ws.Index || grss != wrss {
					t.Fatalf("draw %d mask %#x: memo sweeps %d %v, fresh %d %v", i, mask, gs.Index, grss, ws.Index, wrss)
				}
			}
			for s := range cb.Sectors {
				if got, want := l.SectorRSS(s, mask), fresh.SectorRSS(s, mask); got != want {
					t.Fatalf("draw %d mask %#x sector %d: memo %v, fresh %v", i, mask, s, got, want)
				}
			}
		}
		if l.nrows == len(l.rowMasks) {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no draw filled the memo")
	}
	past := uint64(1) << 50 // not among the rows of the last draw
	if n := testing.AllocsPerRun(20, func() { l.Sweep(past); l.SectorRSS(3, past) }); n != 0 {
		t.Errorf("a full memo allocates %v per Sweep and SectorRSS, want 0", n)
	}
}

// TestLinkBuiltFor pins the key a kept Link is reused under: the radio,
// the codebook and the receiver's bits. A receiver moved by one ulp on
// any axis, or from 0 to -0, is another link.
func TestLinkBuiltFor(t *testing.T) {
	rnd := rand.New(rand.NewSource(37))
	r, cb, rx := diffWorld(t, rnd, 0)
	var l Link
	if l.BuiltFor(r, cb, rx) {
		t.Fatal("a zero Link claims to be built")
	}
	l.Reset(r, cb, rx)
	if !l.BuiltFor(r, cb, rx) {
		t.Fatal("a Link is not built for the receiver it was just reset to")
	}
	r2, cb2, _ := diffWorld(t, rnd, 1)
	moved := []geom.Vec3{
		geom.V(math.Nextafter(rx.X, math.Inf(1)), rx.Y, rx.Z),
		geom.V(rx.X, math.Nextafter(rx.Y, math.Inf(-1)), rx.Z),
		geom.V(rx.X, rx.Y, math.Nextafter(rx.Z, math.Inf(1))),
	}
	for _, m := range moved {
		if l.BuiltFor(r, cb, m) {
			t.Errorf("a receiver moved by one ulp to %v reuses the link built for %v", m, rx)
		}
	}
	if l.BuiltFor(r2, cb, rx) || l.BuiltFor(r, cb2, rx) {
		t.Error("a Link claims to be built for another radio or codebook")
	}
	l.Reset(r, cb, geom.V(0, 1.5, 2))
	if l.BuiltFor(r, cb, geom.V(math.Copysign(0, -1), 1.5, 2)) {
		t.Error("a receiver at x = -0 reuses the link built for x = 0")
	}
}

// BenchmarkSweepBestSector times the full sector sweep toward a receiver
// with two blockers in the room, and its parts: building the link
// response (which fills no sector table), sweeping a built link under a
// mask it has swept before (a memoised row), one user-frame of a
// session, where every pose moves: a Reset toward one of two alternating
// receivers, then a Sweep under its fresh mask, and the common sector of
// a two- and a three-member group whose links are built afresh (one of
// two alternating sets of receivers), so that the common sector's sweep
// fills their tables itself.
func BenchmarkSweepBestSector(b *testing.B) {
	a, _ := NewArray(8, 4, geom.V(0, 2.5, -4), geom.QuatIdent())
	ch := NewChannel(DefaultRoom())
	ch.SetBodies([]Body{DefaultBody(geom.V(0.4, 0, -1)), DefaultBody(geom.V(-1.5, 0, 0.5))})
	r := NewRadio(a, ch)
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	rx := geom.V(1, 1.5, 2)
	b.Run("radio", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.SweepBestSector(cb, rx)
		}
	})
	var l Link
	b.Run("link-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Reset(r, cb, rx)
		}
	})
	mask := l.BlockedBy(ch.Bodies)
	b.Run("link-sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Sweep(mask)
		}
	})
	rxs := [2]geom.Vec3{rx, geom.V(-1.2, 1.4, 1.5)}
	b.Run("link-frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Reset(r, cb, rxs[i&1])
			l.Sweep(l.BlockedBy(ch.Bodies))
		}
	})
	groups := [2][3]geom.Vec3{
		{rx, geom.V(-1.2, 1.4, 1.5), geom.V(2.2, 1.2, 0.4)},
		{geom.V(1.1, 1.5, 2.1), geom.V(-1.3, 1.4, 1.4), geom.V(2.1, 1.3, 0.6)},
	}
	b.Run("link-common", func(b *testing.B) {
		var (
			ls    [3]Link
			masks [3]uint64
		)
		member := func(k int) (*Link, uint64) { return &ls[k], masks[k] }
		for _, n := range []int{2, 3} {
			b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for k, pos := range groups[i&1][:n] {
						ls[k].Reset(r, cb, pos)
						masks[k] = ls[k].BlockedBy(ch.Bodies)
					}
					BestCommonSector(cb, n, member)
				}
			})
		}
	})
}

// TestSectorTableMatchesReference pins the sector table's two fills to
// one arrayFactor sum per entry by Float64bits: a sweep's column fill,
// two sectors per pass with a one-sector tail, forced for every column
// with every sector alive, and the one-sector row fill, forced for every
// sector of another link. The codebooks have 1, 3, 15 and 97 sectors (odd
// and even passes, the tail alone and behind a pass, a second block of
// 64), and one's sectors alternate between full and half-length weights,
// on the differential draws (receivers level with the panel, so some
// paths leave behind it, whose entries Reset sets to 1). Every entry must
// be marked filled, and Sweep and every SectorRSS must still equal the
// pre-kernel formula's.
func TestSectorTableMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(40))
	behind := 0
	for i := 0; i < 40; i++ {
		r, _, rx := diffWorld(t, rnd, i)
		a := r.Array
		grid := func(az, el int) *Codebook {
			return DefaultCodebook(a, CodebookConfig{AzSectors: az, ElSectors: el, AzSpanRad: geom.Rad(120), ElSpanRad: geom.Rad(60)})
		}
		mixed := grid(5, 3)
		for s := 1; s < len(mixed.Sectors); s += 2 {
			mixed.Sectors[s].W = mixed.Sectors[s].W[:a.Elements()/2]
		}
		for _, cb := range []*Codebook{grid(1, 1), grid(3, 1), grid(5, 3), grid(97, 1), mixed} {
			ns := len(cb.Sectors)
			cols, rows := r.Link(cb, rx), r.Link(cb, rx)
			np, ne := len(cols.paths), a.Elements()
			if len(cols.acc) != ns*np {
				t.Fatalf("draw %d, %d sectors: table of %d entries for %d paths", i, ns, len(cols.acc), np)
			}
			for p, term := range cols.terms {
				for b := 0; 64*b < ns && !term.behind; b++ {
					cols.fill(p, b, ^uint64(0)>>(64-min(64, ns-64*b)))
				}
			}
			for s := range ns {
				rows.entries(s)
			}
			for s, we := range cb.radiatedOn(a).w {
				for p, term := range cols.terms {
					want := complex(1, 0)
					if term.behind {
						behind++
					} else {
						want = arrayFactor(we, cols.sv[p*ne:(p+1)*ne])
					}
					for fill, l := range map[string]*Link{"column": cols, "row": rows} {
						got := l.acc[p*ns+s]
						if !l.has(s, p) {
							t.Fatalf("draw %d, %d sectors, sector %d path %d: the %s fill left the entry unmarked", i, ns, s, p, fill)
						}
						if math.Float64bits(real(got)) != math.Float64bits(real(want)) || math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
							t.Fatalf("draw %d, %d sectors, sector %d path %d: %s fill %v, one sum %v", i, ns, s, p, fill, got, want)
						}
					}
				}
			}
			sameSweep(t, r, cb, rx)
		}
	}
	if behind == 0 {
		t.Error("no draw had a path leaving behind the panel")
	}
}
