package phy

import (
	"math"
	"math/rand"
	"testing"

	"volcast/internal/geom"
)

// TestHotPathAllocs holds the sector sweep's kernels to zero allocations
// in the branches the Sweep, RSS, SectorRSS and Reset counts
// (TestLinkResetReusesBuffers, TestSweepMemoMatchesFresh) leave: the
// first sweep after a Reset, which narrows the table over two blocks of
// sectors; the row and column fills, an odd sector out and weights of
// two lengths included; the bounds of a round; the common sector of a
// group, of an empty group and over an empty codebook; and pow10 on its
// tabulated path and the cases it hands to math.Pow.
func TestHotPathAllocs(t *testing.T) {
	r, cb, rx := diffWorld(t, rand.New(rand.NewSource(49)), 1)
	ns := len(cb.Sectors)
	mixed := DefaultCodebook(r.Array, CodebookConfig{AzSectors: 5, ElSectors: 3, AzSpanRad: geom.Rad(120), ElSpanRad: geom.Rad(60)})
	for s := 1; s < len(mixed.Sectors); s += 2 {
		mixed.Sectors[s].W = mixed.Sectors[s].W[:r.Array.Elements()/2]
	}
	rxs := [2]geom.Vec3{rx, geom.V(-1.2, 1.4, 1.5)}
	var l, lm, lb Link
	full := func(l *Link) bool {
		for b := 0; 64*b < len(l.codebook.Sectors); b++ {
			if l.rows(b) != blockMask(len(l.codebook.Sectors), b) {
				return false
			}
		}
		return true
	}

	// The bounds of round 1 over every sector of a filled table.
	lb.Reset(r, cb, rxs[1])
	for s := range ns {
		lb.entries(s)
	}
	g := group{n: 1, link: &lb, mask: lb.BlockedBy(r.Channel.Bodies)}
	var cs cuts
	for i := range cs {
		cs[i].member = -1
	}
	var lo, hi [64]float64

	var ls [2]Link
	var masks [2]uint64
	member := func(i int) (*Link, uint64) { return &ls[i], masks[i] }
	empty := &Codebook{}

	rows := []struct {
		name string
		// run reports whether the result is the one the row is about;
		// each row must report true.
		run func() bool
	}{
		{"narrow (first Sweep after Reset)", func() bool {
			l.Reset(r, cb, rx)
			s, rss := l.Sweep(l.BlockedBy(r.Channel.Bodies))
			return s.Index >= 0 && !math.IsInf(rss, 0)
		}},
		{"entries", func() bool {
			l.Reset(r, cb, rxs[1])
			for s := range ns {
				l.entries(s)
			}
			return full(&l)
		}},
		{"fill", func() bool {
			l.Reset(r, cb, rx)
			alive := uint64(0b1011_0111) // seven sectors: three pairs and one out
			l.fill(0, 0, alive)
			l.fill(0, 1, blockMask(ns, 1))
			return l.column(0, 0)&alive == alive && l.column(0, 1) == blockMask(ns, 1)
		}},
		{"fill/mixed-lengths", func() bool {
			lm.Reset(r, mixed, rx)
			all := blockMask(len(mixed.Sectors), 0)
			lm.fill(0, 0, all)
			return lm.column(0, 0) == all
		}},
		{"bound", func() bool {
			all := blockMask(ns, 0)
			return g.bound(&cs, all, 0, 1, &lo, &hi) == all && lo[5] <= hi[5]
		}},
		{"BestCommonSector", func() bool {
			for i, pos := range rxs {
				ls[i].Reset(r, cb, pos)
				masks[i] = ls[i].BlockedBy(r.Channel.Bodies)
			}
			s, rss := BestCommonSector(cb, 2, member)
			return s >= 0 && !math.IsInf(rss, 0)
		}},
		{"BestCommonSector/empty-group", func() bool {
			s, rss := BestCommonSector(cb, 0, member)
			return s == 0 && math.IsInf(rss, 1)
		}},
		{"BestCommonSector/empty-codebook", func() bool {
			s, rss := BestCommonSector(empty, 2, member)
			return s == -1 && math.IsInf(rss, -1)
		}},
		{"pow10", func() bool { return pow10(-7.3) == math.Pow(10, -7.3) && pow10(12) == math.Pow(10, 12) }},
		{"pow10/math.Pow", func() bool { return pow10(0.5) == math.Pow(10, 0.5) && pow10(600) == math.Pow(10, 600) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if !row.run() {
				t.Fatalf("%s did not take its branch", row.name)
			}
			if a := testing.AllocsPerRun(50, func() { row.run() }); a != 0 {
				t.Errorf("%s allocates %v per call, want 0", row.name, a)
			}
		})
	}
}
