package mac

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPERWaterfall(t *testing.T) {
	if p := PER(0); math.Abs(p-0.1) > 1e-12 {
		t.Errorf("PER(0) = %v", p)
	}
	if p := PER(2.5); math.Abs(p-0.01) > 1e-12 {
		t.Errorf("PER(2.5) = %v", p)
	}
	if p := PER(-10); p != 0.9 {
		t.Errorf("PER(-10) = %v", p)
	}
	if p := PER(100); p != 1e-6 {
		t.Errorf("PER(100) = %v", p)
	}
	// Monotone decreasing.
	prev := 1.0
	for m := -5.0; m <= 15; m += 0.5 {
		p := PER(m)
		if p > prev {
			t.Fatalf("PER not monotone at %v", m)
		}
		prev = p
	}
}

func TestGCRModeString(t *testing.T) {
	for m := GCROff; m <= GCRBlockAck; m++ {
		if m.String() == "" {
			t.Errorf("empty name for %d", m)
		}
	}
	if GCRMode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}

func TestExpectedTxOff(t *testing.T) {
	g := GCR{Mode: GCROff}
	if got := g.ExpectedTx([]float64{0.1, 0.1}); got != 1 {
		t.Errorf("off = %v", got)
	}
	if got := g.ExpectedTx(nil); got != 1 {
		t.Errorf("empty = %v", got)
	}
}

func TestExpectedTxUnsolicited(t *testing.T) {
	g := GCR{Mode: GCRUnsolicited, UnsolicitedRetries: 2}
	if got := g.ExpectedTx([]float64{0.5}); got != 3 {
		t.Errorf("UR = %v", got)
	}
	g2 := GCR{Mode: GCRUnsolicited, UnsolicitedRetries: -1}
	if got := g2.ExpectedTx([]float64{0.5}); got != 1 {
		t.Errorf("UR clamp = %v", got)
	}
}

func TestExpectedTxBlockAck(t *testing.T) {
	g := DefaultGCR()
	// Clean links: essentially one transmission plus the BA tax.
	clean := g.ExpectedTx([]float64{1e-6, 1e-6})
	if clean < 1.0 || clean > 1.1 {
		t.Errorf("clean ExpectedTx = %v", clean)
	}
	// One lossy member: geometric-ish retransmissions. For PER 0.5 the
	// single-member expectation is Σ_{t≥0} 0.5^t = 2 (bounded by limit).
	lossy := g.ExpectedTx([]float64{0.5})
	if lossy < 1.9*1.04 || lossy > 2.1*1.04 {
		t.Errorf("lossy ExpectedTx = %v", lossy)
	}
	// More members can only need more transmissions.
	two := g.ExpectedTx([]float64{0.5, 0.5})
	if two < lossy {
		t.Errorf("two members %v below one %v", two, lossy)
	}
	// Retry limit bounds the expectation.
	awful := g.ExpectedTx([]float64{0.9, 0.9, 0.9})
	if awful > float64(g.RetryLimit+1)*(1+g.BAOverheadFrac)+1e-9 {
		t.Errorf("ExpectedTx %v exceeds retry budget", awful)
	}
}

func TestReliableMulticastRate(t *testing.T) {
	g := DefaultGCR()
	// High margins: nearly the full rate.
	r := g.ReliableMulticastRate(1000, []float64{10, 12})
	if r < 940 || r > 1000 {
		t.Errorf("high-margin rate = %v", r)
	}
	// Zero margin on one member: visible tax.
	r2 := g.ReliableMulticastRate(1000, []float64{10, 0})
	if r2 >= r {
		t.Errorf("zero-margin rate %v not below %v", r2, r)
	}
	if got := g.ReliableMulticastRate(0, []float64{10}); got != 0 {
		t.Errorf("zero base rate = %v", got)
	}
}

func TestResidualLossProb(t *testing.T) {
	off := GCR{Mode: GCROff}
	ba := DefaultGCR()
	ur := GCR{Mode: GCRUnsolicited, UnsolicitedRetries: 3}
	margins := []float64{0, 1} // PERs 0.1 and ~0.04
	pOff := off.ResidualLossProb(margins)
	pUR := ur.ResidualLossProb(margins)
	pBA := ba.ResidualLossProb(margins)
	if !(pBA < pUR && pUR < pOff) {
		t.Errorf("loss ordering wrong: off=%v ur=%v ba=%v", pOff, pUR, pBA)
	}
	if pBA > 1e-6 {
		t.Errorf("GCR-BA residual loss %v too high", pBA)
	}
	if pOff < 0.1 {
		t.Errorf("no-retry loss %v too low for PER 0.1", pOff)
	}
}

// Property: ExpectedTx is ≥ 1 and monotone in every member's PER.
func TestPropertyExpectedTxMonotone(t *testing.T) {
	g := DefaultGCR()
	f := func(a, b uint8) bool {
		p1 := float64(a%90) / 100
		p2 := float64(b%90) / 100
		if p2 < p1 {
			p1, p2 = p2, p1
		}
		e1 := g.ExpectedTx([]float64{p1})
		e2 := g.ExpectedTx([]float64{p2})
		return e1 >= 1 && e2 >= e1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExpectedTxAtLeastOne holds the fact the planner's rate ceiling rests
// on: a reliable multicast rate is a MAC rate divided by ExpectedTx, which
// is at least 1 for every mode (unknown ones included) and retry setting
// and any member PERs in [0, 1], so the division never raises a rate.
func TestExpectedTxAtLeastOne(t *testing.T) {
	policies := []GCR{
		{},
		DefaultGCR(),
		{Mode: GCRUnsolicited},
		{Mode: GCRUnsolicited, UnsolicitedRetries: -3},
		{Mode: GCRUnsolicited, UnsolicitedRetries: 4},
		{Mode: GCRBlockAck},
		{Mode: GCRBlockAck, RetryLimit: -1},
		{Mode: GCRBlockAck, RetryLimit: 1, BAOverheadFrac: 0.5},
		{Mode: GCRMode(9), RetryLimit: 3},
	}
	rnd := rand.New(rand.NewSource(7))
	edges := []float64{0, 1e-9, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-12, 1}
	for _, g := range policies {
		for trial := 0; trial < 500; trial++ {
			pers := make([]float64, trial%8)
			for i := range pers {
				if rnd.Intn(2) == 0 {
					pers[i] = edges[rnd.Intn(len(edges))]
				} else {
					pers[i] = rnd.Float64()
				}
			}
			if x := g.ExpectedTx(pers); !(x >= 1) {
				t.Fatalf("%+v: ExpectedTx(%v) = %v, below 1", g, pers, x)
			}
			margins := make([]float64, len(pers))
			for i := range margins {
				margins[i] = -20 + 50*rnd.Float64()
			}
			for _, rate := range []float64{0, 1, 1302, 2864.4} {
				if r := g.ReliableMulticastRate(rate, margins); r > rate {
					t.Fatalf("%+v: ReliableMulticastRate(%v, %v) = %v, above the rate", g, rate, margins, r)
				}
			}
		}
	}
}
