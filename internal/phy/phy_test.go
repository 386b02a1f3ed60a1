package phy

import (
	"math"
	"testing"

	"volcast/internal/geom"
)

// testArray returns the standard 8x4 UPA at the room's front wall facing
// +Z (into the room).
func testArray(t testing.TB) *Array {
	t.Helper()
	a, err := NewArray(8, 4, geom.V(0, 2.5, -4), geom.QuatIdent())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(0, 4, geom.Vec3{}, geom.QuatIdent()); err == nil {
		t.Error("0-element array accepted")
	}
	if _, err := NewArray(4, -1, geom.Vec3{}, geom.QuatIdent()); err == nil {
		t.Error("negative array accepted")
	}
}

func TestAWVNormalize(t *testing.T) {
	w := AWV{2, 0, 2i, 0}
	n := w.Normalize()
	if math.Abs(n.Power()-1) > 1e-12 {
		t.Errorf("normalized power = %v", n.Power())
	}
	// Zero vector unchanged, no NaN.
	z := AWV{0, 0}
	if got := z.Normalize(); got.Power() != 0 {
		t.Errorf("zero normalize = %v", got)
	}
}

func TestSteeredBeamPeaksAtTarget(t *testing.T) {
	a := testArray(t)
	target := geom.V(2, 0, 3).Sub(a.Pos).Norm()
	w := a.SteerTo(target)
	peak := a.GainDBi(w, target)
	// Peak gain ≈ 10log10(32) + 5 dBi element ≈ 20 dBi.
	if peak < 17 || peak > 23 {
		t.Errorf("peak gain %v dBi, want ~20", peak)
	}
	// Gains at ±20° azimuth off-target are significantly below the peak.
	az, el := target.AzimuthElevation()
	off := geom.FromAzEl(az+geom.Rad(20), el)
	if g := a.GainDBi(w, off); g > peak-8 {
		t.Errorf("20° off-beam gain %v too close to peak %v", g, peak)
	}
	// Behind the panel: essentially no radiation.
	if g := a.GainDBi(w, geom.V(0, 0, -1)); g > -50 {
		t.Errorf("back-lobe gain %v", g)
	}
}

func TestSteeringVectorUnitModulus(t *testing.T) {
	a := testArray(t)
	sv := a.SteeringVector(geom.V(0.3, -0.1, 0.9))
	if len(sv) != 32 {
		t.Fatalf("steering vector len %d", len(sv))
	}
	for i, c := range sv {
		if math.Abs(real(c)*real(c)+imag(c)*imag(c)-1) > 1e-9 {
			t.Fatalf("element %d modulus != 1", i)
		}
	}
}

func TestCodebookCoverage(t *testing.T) {
	a := testArray(t)
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	if cb.Len() != 96 {
		t.Fatalf("codebook size %d, want 96", cb.Len())
	}
	// Every direction in the forward sector gets a decent best-sector gain.
	for az := -50.0; az <= 50; az += 10 {
		dir := a.Rot.Rotate(geom.FromAzEl(geom.Rad(az), 0))
		_, g := cb.BestSector(a, dir)
		if g < 12 {
			t.Errorf("best gain at az %v = %v dBi, want >= 12", az, g)
		}
	}
}

func TestFSPL(t *testing.T) {
	// 60 GHz at 1 m ≈ 68 dB.
	if got := FSPL(1); math.Abs(got-68) > 1 {
		t.Errorf("FSPL(1m) = %v", got)
	}
	// +6 dB per distance doubling.
	if d := FSPL(2) - FSPL(1); math.Abs(d-6.02) > 0.1 {
		t.Errorf("doubling delta = %v", d)
	}
	// Clamped below 10 cm.
	if FSPL(0.001) != FSPL(0.1) {
		t.Error("short distance not clamped")
	}
}

func TestBodyBlocksSegment(t *testing.T) {
	b := DefaultBody(geom.V(0, 0, 2))
	// Ray through the body at torso height.
	if !b.BlocksSegment(geom.V(0, 1.5, 0), geom.V(0, 1.5, 4)) {
		t.Error("through-torso segment not blocked")
	}
	// Ray passing 1 m to the side.
	if b.BlocksSegment(geom.V(1, 1.5, 0), geom.V(1, 1.5, 4)) {
		t.Error("side segment blocked")
	}
	// Ray passing above the head.
	if b.BlocksSegment(geom.V(0, 2.5, 0), geom.V(0, 2.5, 4)) {
		t.Error("overhead segment blocked")
	}
	// Segment ending before the body.
	if b.BlocksSegment(geom.V(0, 1.5, 0), geom.V(0, 1.5, 1)) {
		t.Error("short segment blocked")
	}
}

func TestChannelPathsLOSAndReflections(t *testing.T) {
	ch := NewChannel(DefaultRoom())
	tx := geom.V(0, 2.5, -4)
	rx := geom.V(1, 1.5, 2)
	paths := ch.Paths(tx, rx)
	nLOS, nRefl := 0, 0
	for _, p := range paths {
		switch p.Reflections {
		case 0:
			nLOS++
			if math.Abs(p.Length-tx.Dist(rx)) > 1e-9 {
				t.Errorf("LOS length %v", p.Length)
			}
			if p.ExtraLossDB != 0 {
				t.Errorf("LOS extra loss %v", p.ExtraLossDB)
			}
		case 1:
			nRefl++
			if p.Length <= tx.Dist(rx) {
				t.Errorf("reflection shorter than LOS: %v", p.Length)
			}
			if p.ExtraLossDB < ch.Room.WallLossDB {
				t.Errorf("reflection missing wall loss: %v", p.ExtraLossDB)
			}
		}
	}
	if nLOS != 1 {
		t.Errorf("%d LOS paths", nLOS)
	}
	// Interior TX/RX see several wall/floor/ceiling bounces.
	if nRefl < 4 {
		t.Errorf("only %d reflection paths", nRefl)
	}
}

func TestBlockageAttenuatesLOS(t *testing.T) {
	a := testArray(t)
	ch := NewChannel(DefaultRoom())
	r := NewRadio(a, ch)
	rx := geom.V(0, 1.5, 2)
	w := a.SteerTo(rx.Sub(a.Pos).Norm())
	clear := r.RSS(w, rx)

	// Put a body right in the LOS.
	ch.SetBodies([]Body{DefaultBody(geom.V(0, 0, 1))})
	blocked := r.RSS(w, rx)
	if clear-blocked < 5 {
		t.Errorf("blockage dropped RSS only %.1f dB (clear %.1f, blocked %.1f)",
			clear-blocked, clear, blocked)
	}
	// LOS-only view shows the full body loss.
	losBlocked := r.RSSLOSOnly(w, rx)
	losClear := clear // approximately, since LOS dominates when aligned
	if losClear-losBlocked < 20 {
		t.Errorf("LOS-only blockage loss %.1f dB, want >= 20", losClear-losBlocked)
	}
}

func TestRSSCalibrationBand(t *testing.T) {
	// Viewing positions 1.5–4.5 m from the AP with best default sector
	// must land in the paper's measured band (−80…−50 dBm).
	a := testArray(t)
	ch := NewChannel(DefaultRoom())
	r := NewRadio(a, ch)
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	for _, rx := range []geom.Vec3{
		geom.V(0, 1.5, -1), geom.V(2, 1.5, 0), geom.V(-2, 1.3, 2), geom.V(1, 1.6, 3),
	} {
		s, _ := cb.BestSector(a, rx.Sub(a.Pos).Norm())
		rss := r.RSS(s.W, rx)
		if rss < -80 || rss > -45 {
			t.Errorf("RSS at %v = %.1f dBm outside calibration band", rx, rss)
		}
	}
}

func TestBestPathDirPrefersUnblocked(t *testing.T) {
	ch := NewChannel(DefaultRoom())
	tx := geom.V(0, 2.5, -4)
	rx := geom.V(0, 1.5, 2)
	dirClear, ok := ch.bestDirFor(tx, rx)
	if !ok {
		t.Fatal("no path")
	}
	los := rx.Sub(tx).Norm()
	if dirClear.Dot(los) < 0.999 {
		t.Errorf("clear best path not LOS: %v", dirClear)
	}
	// Block the LOS: best path must change to a reflection.
	ch.SetBodies([]Body{DefaultBody(geom.V(0, 0, 1))})
	dirBlocked, ok := ch.bestDirFor(tx, rx)
	if !ok {
		t.Fatal("no path when blocked")
	}
	if dirBlocked.Dot(los) > 0.999 {
		t.Error("blocked best path still LOS")
	}
}

// bestDirFor adapts Radio.BestPathDir for a bare channel in tests.
func (ch *Channel) bestDirFor(tx, rx geom.Vec3) (geom.Vec3, bool) {
	a, _ := NewArray(8, 4, tx, geom.QuatIdent())
	r := NewRadio(a, ch)
	return r.BestPathDir(rx)
}

func TestSelectMCS(t *testing.T) {
	// Paper anchor: −68 dBm supports 385 Mbps (MCS1).
	m, ok := SelectMCS(AD_SC_MCS, -68)
	if !ok || m.Index != 1 || m.RateMbps != 385 {
		t.Errorf("SelectMCS(-68) = %+v, %v", m, ok)
	}
	// Strong signal gets the top MCS.
	m, ok = SelectMCS(AD_SC_MCS, -40)
	if !ok || m.Index != 12 {
		t.Errorf("SelectMCS(-40) = %+v", m)
	}
	// Outage below the lowest sensitivity.
	if _, ok := SelectMCS(AD_SC_MCS, -75); ok {
		t.Error("outage RSS selected an MCS")
	}
	if r := RateForRSS(AD_SC_MCS, -75); r != 0 {
		t.Errorf("outage rate %v", r)
	}
	if r := RateForRSS(AD_SC_MCS, -60); r != 2310 {
		t.Errorf("RateForRSS(-60) = %v", r)
	}
}

func TestMCSTableMonotone(t *testing.T) {
	for _, table := range [][]MCS{AD_SC_MCS, AC_VHT80_MCS} {
		for i := 1; i < len(table); i++ {
			if table[i].SensitivityDBm <= table[i-1].SensitivityDBm {
				t.Errorf("sensitivities not increasing at %d", i)
			}
			if table[i].RateMbps <= table[i-1].RateMbps {
				t.Errorf("rates not increasing at %d", i)
			}
		}
	}
}

func TestCommonMCS(t *testing.T) {
	// Group limited by weakest member.
	m, ok := CommonMCS(AD_SC_MCS, []float64{-55, -68, -60})
	if !ok || m.Index != 1 {
		t.Errorf("CommonMCS = %+v", m)
	}
	if _, ok := CommonMCS(AD_SC_MCS, nil); ok {
		t.Error("empty group got an MCS")
	}
	if _, ok := CommonMCS(AD_SC_MCS, []float64{-55, -90}); ok {
		t.Error("group with outage member got an MCS")
	}
}

func BenchmarkRSS(b *testing.B) {
	a := testArray(b)
	ch := NewChannel(DefaultRoom())
	ch.SetBodies([]Body{DefaultBody(geom.V(1, 0, 1))})
	r := NewRadio(a, ch)
	rx := geom.V(1, 1.5, 2)
	w := a.SteerTo(rx.Sub(a.Pos).Norm())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RSS(w, rx)
	}
}

func BenchmarkBestSector(b *testing.B) {
	a := testArray(b)
	cb := DefaultCodebook(a, DefaultCodebookConfig())
	dir := geom.V(1, -0.2, 2).Norm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = cb.BestSector(a, dir)
	}
}

func TestQuantizeAWV(t *testing.T) {
	a := testArray(t)
	target := geom.V(1.5, -0.5, 3).Norm()
	ideal := a.SteerTo(target)

	// Phase quantization alone: small loss, unit power.
	q2 := QuantizeAWV(ideal, 2, false)
	if math.Abs(q2.Power()-1) > 1e-9 {
		t.Errorf("quantized power %v", q2.Power())
	}
	gi := a.GainDBi(ideal, target)
	g2 := a.GainDBi(q2, target)
	if gi-g2 > 1.5 {
		t.Errorf("2-bit phase quantization lost %.2f dB (ideal %.1f, quant %.1f)", gi-g2, gi, g2)
	}
	if g2 > gi+0.3 {
		t.Errorf("quantization gained gain? %.1f vs %.1f", g2, gi)
	}
	// Steered beams are constant-modulus already: phase-only changes little.
	po := QuantizeAWV(ideal, 0, true)
	if gp := a.GainDBi(po, target); math.Abs(gp-gi) > 0.5 {
		t.Errorf("phase-only on steered beam lost %.2f dB", gi-gp)
	}
	// Zero elements stay zero.
	z := QuantizeAWV(AWV{0, 1}, 2, true)
	if z[0] != 0 {
		t.Errorf("zero element became %v", z[0])
	}
}

func TestFadingStatistics(t *testing.T) {
	f := NewFading(7)
	const dt = 1.0 / 30
	var sum, sumsq float64
	n := 30_000
	for i := 0; i < n; i++ {
		v := f.Step(dt)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.3 {
		t.Errorf("fading mean %v, want ~0", mean)
	}
	if std < 0.8 || std > 2.5 {
		t.Errorf("fading std %v, want ~1.5", std)
	}
	// Deterministic given the seed.
	a, b := NewFading(3), NewFading(3)
	for i := 0; i < 100; i++ {
		if a.Step(dt) != b.Step(dt) {
			t.Fatal("fading not deterministic")
		}
	}
	if a.OffsetDB() != b.OffsetDB() {
		t.Fatal("OffsetDB mismatch")
	}
	// Zero-value works (lazy rng, default tau).
	var z Fading
	z.StdDB = 1
	_ = z.Step(dt)
}

func TestSecondOrderReflections(t *testing.T) {
	ch := NewChannel(DefaultRoom())
	tx := geom.V(0, 2.5, -4)
	rx := geom.V(1, 1.5, 2)
	first := len(ch.Paths(tx, rx))
	ch.SecondOrder = true
	paths := ch.Paths(tx, rx)
	if len(paths) <= first {
		t.Fatalf("second order added no paths: %d vs %d", len(paths), first)
	}
	for _, p := range paths {
		if p.Reflections == 2 {
			if p.ExtraLossDB < 2*ch.Room.WallLossDB {
				t.Errorf("double bounce missing wall losses: %v", p.ExtraLossDB)
			}
			if p.Length <= tx.Dist(rx) {
				t.Errorf("double bounce shorter than LOS: %v", p.Length)
			}
		}
	}
	// Fallback value: block LOS and every first-order path with a wall of
	// bodies; a second-order path can still route around when geometry
	// allows — at minimum the model must not panic and RSS must not rise.
	a, _ := NewArray(8, 4, tx, geom.QuatIdent())
	r := NewRadio(a, ch)
	w := a.SteerTo(rx.Sub(tx).Norm())
	withSecond := r.RSS(w, rx)
	ch.SecondOrder = false
	withoutSecond := r.RSS(w, rx)
	if withSecond < withoutSecond-1e-9 {
		t.Errorf("adding paths lowered RSS: %.2f vs %.2f", withSecond, withoutSecond)
	}
}
