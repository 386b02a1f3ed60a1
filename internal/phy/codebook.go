package phy

import (
	"math"
	"math/cmplx"
	"sync/atomic"

	"volcast/internal/geom"
)

// Sector is one entry of a beam codebook: a precomputed AWV with the
// direction it was designed for.
type Sector struct {
	// Index is the sector's position in the codebook.
	Index int
	// AzRad, ElRad are the design direction in array-local angles.
	AzRad, ElRad float64
	// W is the unit-power weight vector.
	W AWV
}

// Codebook is a set of predefined beams, like the sector sweep codebook a
// commercial 802.11ad device ships with. The paper's Fig. 3b shows that
// these default single-lobe beams cannot serve multicast groups well.
//
// A codebook is immutable once a Link has read it: the first Link built
// with it on an array computes every sector's radiated weights (W with
// the array's imperfections applied) and keeps them with the codebook for
// the links after it, so a later change to Sectors would go unseen.
type Codebook struct {
	Sectors []Sector

	radiated atomic.Pointer[radiatedSectors]
}

// radiatedSectors holds every sector's radiated weights on one array,
// and each sector's peak bound: peak[s] is at least the computed
// max(re² + im², 1e−18) of the s-th sector's array factor toward any
// direction, Σ_i |w_i·e_i| squared with a slack for the roundings of the
// dot product and of the bound itself (DESIGN.md §14). It is read-only
// once published.
type radiatedSectors struct {
	array *Array
	w     []AWV
	peak  []float64
}

// peakSlack is the relative slack the peak bound carries: the roundings
// it covers come to under 160 u ≈ 1.8e−14 (DESIGN.md §14).
const peakSlack = 1e-12

// radiatedOn returns every sector's radiated weights and peak bound on a,
// computing them on the codebook's first use with a (or with another
// array since). Two first uses may race: each computes the same table and
// either may be kept, so the read path takes no lock.
func (cb *Codebook) radiatedOn(a *Array) *radiatedSectors {
	if t := cb.radiated.Load(); t != nil && t.array == a {
		return t
	}
	t := &radiatedSectors{array: a, w: make([]AWV, len(cb.Sectors)), peak: make([]float64, len(cb.Sectors))}
	n := 0
	for _, sec := range cb.Sectors {
		n += len(sec.W)
	}
	slab := make(AWV, n)
	for s, sec := range cb.Sectors {
		t.w[s] = a.weigh(slab[:len(sec.W):len(sec.W)], sec.W)
		slab = slab[len(sec.W):]
		var sum float64
		for _, c := range t.w[s] {
			sum += cmplx.Abs(c)
		}
		t.peak[s] = max(sum*sum*(1+peakSlack), 1e-18)
	}
	cb.radiated.Store(t)
	return t
}

// CodebookConfig controls DefaultCodebook generation.
type CodebookConfig struct {
	// AzSectors is the number of azimuth steps across the coverage span.
	AzSectors int
	// ElSectors is the number of elevation steps.
	ElSectors int
	// AzSpanRad is the total azimuth coverage (centered on boresight).
	AzSpanRad float64
	// ElSpanRad is the total elevation coverage (centered on boresight).
	ElSpanRad float64
}

// DefaultCodebookConfig matches a commodity 11ad router: 32 azimuth
// sectors over ±60°, 3 elevation rows over ±30°.
func DefaultCodebookConfig() CodebookConfig {
	return CodebookConfig{
		AzSectors: 32,
		ElSectors: 3,
		AzSpanRad: geom.Rad(120),
		ElSpanRad: geom.Rad(60),
	}
}

// DefaultCodebook builds the device's default single-lobe codebook for the
// array: a grid of steered beams covering the forward sector.
func DefaultCodebook(a *Array, cfg CodebookConfig) *Codebook {
	if cfg.AzSectors <= 0 {
		cfg = DefaultCodebookConfig()
	}
	cb := &Codebook{}
	idx := 0
	for e := 0; e < cfg.ElSectors; e++ {
		el := 0.0
		if cfg.ElSectors > 1 {
			el = -cfg.ElSpanRad/2 + cfg.ElSpanRad*float64(e)/float64(cfg.ElSectors-1)
		}
		for s := 0; s < cfg.AzSectors; s++ {
			az := -cfg.AzSpanRad/2 + cfg.AzSpanRad*(float64(s)+0.5)/float64(cfg.AzSectors)
			// Steer in array-local coordinates, then rotate to world.
			localDir := geom.FromAzEl(az, el)
			worldDir := a.Rot.Rotate(localDir)
			cb.Sectors = append(cb.Sectors, Sector{
				Index: idx, AzRad: az, ElRad: el, W: a.SteerTo(worldDir),
			})
			idx++
		}
	}
	return cb
}

// BestSector returns the codebook sector with the highest gain toward the
// world direction dir (what sector-level sweep training would select).
//
// Kept: the codebook-coverage and RSS-calibration tests pick sectors
// with it.
func (cb *Codebook) BestSector(a *Array, dir geom.Vec3) (Sector, float64) {
	best := Sector{Index: -1}
	bestGain := math.Inf(-1)
	for _, s := range cb.Sectors {
		if g := a.GainDBi(s.W, dir); g > bestGain {
			best, bestGain = s, g
		}
	}
	return best, bestGain
}

// Len returns the number of sectors.
//
// Kept: the link tests draw random sectors with it.
func (cb *Codebook) Len() int { return len(cb.Sectors) }
