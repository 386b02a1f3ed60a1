package phy

import (
	"math"
	"math/cmplx"

	"volcast/internal/geom"
)

// The RSS computation as it stood before the Link kernel: every call
// re-traces the room with blockage applied inline and rebuilds one
// steering vector per path. Kept verbatim (names prefixed ref) as the
// oracle the kernel must match with ==.

type refMirror struct {
	axis  int     // 0=X, 1=Y, 2=Z
	coord float64 // plane coordinate
}

func refPaths(ch *Channel, tx, rx geom.Vec3) []Path {
	out := make([]Path, 0, 7)
	out = append(out, refFinishPath(ch, tx, rx, tx, rx, 0))

	b := ch.Room.Bounds
	mirrors := []refMirror{
		{0, b.Min.X}, {0, b.Max.X},
		{1, b.Min.Y}, {1, b.Max.Y},
		{2, b.Min.Z}, {2, b.Max.Z},
	}
	for _, m := range mirrors {
		img := rx
		switch m.axis {
		case 0:
			img.X = 2*m.coord - rx.X
		case 1:
			img.Y = 2*m.coord - rx.Y
		default:
			img.Z = 2*m.coord - rx.Z
		}
		d := img.Sub(tx)
		var denom, num float64
		switch m.axis {
		case 0:
			denom, num = d.X, m.coord-tx.X
		case 1:
			denom, num = d.Y, m.coord-tx.Y
		default:
			denom, num = d.Z, m.coord-tx.Z
		}
		if math.Abs(denom) < 1e-12 {
			continue
		}
		t := num / denom
		if t <= 1e-6 || t >= 1-1e-6 {
			continue
		}
		rp := tx.Add(d.Scale(t))
		if !b.Expand(1e-9).Contains(rp) {
			continue
		}
		p := refFinishPath(ch, tx, rp, rp, rx, 1)
		p.ExtraLossDB += ch.Room.WallLossDB
		p.Length = tx.Dist(rp) + rp.Dist(rx)
		p.Dir = rp.Sub(tx).Norm()
		out = append(out, p)
	}
	if ch.SecondOrder {
		out = append(out, refSecondOrderPaths(ch, tx, rx, mirrors)...)
	}
	return out
}

func refSecondOrderPaths(ch *Channel, tx, rx geom.Vec3, mirrors []refMirror) []Path {
	b := ch.Room.Bounds
	var out []Path
	reflect := func(p geom.Vec3, axis int, coord float64) geom.Vec3 {
		switch axis {
		case 0:
			p.X = 2*coord - p.X
		case 1:
			p.Y = 2*coord - p.Y
		default:
			p.Z = 2*coord - p.Z
		}
		return p
	}
	crossAt := func(a, c geom.Vec3, axis int, coord float64) (geom.Vec3, bool) {
		d := c.Sub(a)
		var denom, num float64
		switch axis {
		case 0:
			denom, num = d.X, coord-a.X
		case 1:
			denom, num = d.Y, coord-a.Y
		default:
			denom, num = d.Z, coord-a.Z
		}
		if math.Abs(denom) < 1e-12 {
			return geom.Vec3{}, false
		}
		t := num / denom
		if t <= 1e-6 || t >= 1-1e-6 {
			return geom.Vec3{}, false
		}
		p := a.Add(d.Scale(t))
		if !b.Expand(1e-9).Contains(p) {
			return geom.Vec3{}, false
		}
		return p, true
	}
	for _, mA := range mirrors {
		for _, mB := range mirrors {
			if mA.axis == mB.axis {
				continue
			}
			img := reflect(reflect(rx, mB.axis, mB.coord), mA.axis, mA.coord)
			rpA, ok := crossAt(tx, img, mA.axis, mA.coord)
			if !ok {
				continue
			}
			imgB := reflect(rx, mB.axis, mB.coord)
			rpB, ok := crossAt(rpA, imgB, mB.axis, mB.coord)
			if !ok {
				continue
			}
			p := Path{
				Dir:         rpA.Sub(tx).Norm(),
				Length:      tx.Dist(rpA) + rpA.Dist(rpB) + rpB.Dist(rx),
				Reflections: 2,
				ExtraLossDB: 2 * ch.Room.WallLossDB,
			}
			for _, body := range ch.Bodies {
				if body.BlocksSegment(tx, rpA) || body.BlocksSegment(rpA, rpB) || body.BlocksSegment(rpB, rx) {
					p.Blocked = true
					p.ExtraLossDB += ch.BodyLossDB
					break
				}
			}
			out = append(out, p)
		}
	}
	return out
}

func refFinishPath(ch *Channel, txSeg1a, txSeg1b, seg2a, seg2b geom.Vec3, refl int) Path {
	p := Path{
		Dir:         txSeg1b.Sub(txSeg1a).Norm(),
		Length:      txSeg1a.Dist(txSeg1b),
		Reflections: refl,
	}
	if refl == 0 {
		p.Length = txSeg1a.Dist(seg2b)
	}
	for _, body := range ch.Bodies {
		blocked := body.BlocksSegment(txSeg1a, txSeg1b)
		if !blocked && refl > 0 {
			blocked = body.BlocksSegment(seg2a, seg2b)
		}
		if blocked {
			p.Blocked = true
			p.ExtraLossDB += ch.BodyLossDB
			break
		}
	}
	return p
}

func refSteeringVector(a *Array, dir geom.Vec3) AWV {
	u := a.localDir(dir.Norm())
	d := a.SpacingWl * Wavelength()
	k := 2 * math.Pi / Wavelength()
	out := make(AWV, 0, a.Elements())
	for n := 0; n < a.NY; n++ {
		for m := 0; m < a.NX; m++ {
			phase := k * d * (float64(m)*u.X + float64(n)*u.Y)
			out = append(out, cmplx.Exp(complex(0, phase)))
		}
	}
	return out
}

func refGainDBi(a *Array, w AWV, dir geom.Vec3) float64 {
	u := a.localDir(dir.Norm())
	if u.Z <= 0 {
		return -60
	}
	sv := refSteeringVector(a, dir)
	var acc complex128
	for i := range w {
		e := complex(1, 0)
		if i < len(a.imperfections) {
			e = a.imperfections[i]
		}
		acc += w[i] * e * sv[i]
	}
	af := cmplx.Abs(acc)
	if af < 1e-9 {
		af = 1e-9
	}
	elemGain := a.ElementGainDBi + 10*1.2*math.Log10(math.Max(u.Z, 1e-3))
	return 10*math.Log10(af*af) + elemGain
}

func refRSS(r *Radio, w AWV, rx geom.Vec3) float64 {
	paths := refPaths(r.Channel, r.Array.Pos, rx)
	var linear float64
	for _, p := range paths {
		g := refGainDBi(r.Array, w, p.Dir)
		dbm := r.Budget.TxPowerDBm + g + r.Budget.RxGainDBi - FSPL(p.Length) - p.ExtraLossDB
		linear += math.Pow(10, dbm/10)
	}
	if linear <= 0 {
		return -200
	}
	return 10 * math.Log10(linear)
}

func refRSSLOSOnly(r *Radio, w AWV, rx geom.Vec3) float64 {
	paths := refPaths(r.Channel, r.Array.Pos, rx)
	for _, p := range paths {
		if p.Reflections == 0 {
			dbm := r.Budget.TxPowerDBm + refGainDBi(r.Array, w, p.Dir) + r.Budget.RxGainDBi -
				FSPL(p.Length) - p.ExtraLossDB
			return dbm
		}
	}
	return -200
}

func refSweepBestSector(r *Radio, cb *Codebook, rx geom.Vec3) (Sector, float64) {
	best := Sector{Index: -1}
	bestRSS := math.Inf(-1)
	for _, s := range cb.Sectors {
		if v := refRSS(r, s.W, rx); v > bestRSS {
			best, bestRSS = s, v
		}
	}
	return best, bestRSS
}

func refBestPathDir(r *Radio, rx geom.Vec3) (geom.Vec3, bool) {
	paths := refPaths(r.Channel, r.Array.Pos, rx)
	bestScore := math.Inf(-1)
	var bestDir geom.Vec3
	found := false
	for _, p := range paths {
		score := -FSPL(p.Length) - p.ExtraLossDB
		if score > bestScore {
			bestScore, bestDir, found = score, p.Dir, true
		}
	}
	return bestDir, found
}
