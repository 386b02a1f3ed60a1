package phy

import (
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
		awvs := []AWV{
			cb.Sectors[rnd.Intn(cb.Len())].W,
			steered,
			QuantizeAWV(steered.Add(a.SteerTo(other.Sub(a.Pos))), 2, true),
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

// BenchmarkSweepBestSector times the full sector sweep toward a receiver
// with two blockers in the room, and its two halves: building the link
// response and sweeping it.
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
}
