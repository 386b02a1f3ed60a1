// Package phy models the 802.11ad mmWave physical layer the paper's
// testbed measures: phased antenna arrays with complex antenna weight
// vectors (AWVs), directional beam patterns, a default DFT beam codebook,
// a shoebox-room ray-traced channel with first-order reflections (the
// Remcom Wireless InSite stand-in), human-body blockage, the 60 GHz link
// budget, and the 802.11ad/802.11ac MCS tables that map received signal
// strength to PHY rate.
//
// Conventions: angles are radians, distances meters, powers dBm, gains
// dBi. Azimuth is measured in the XZ plane from +Z toward +X; elevation
// above the XZ plane (see geom.Vec3.AzimuthElevation).
package phy

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"volcast/internal/geom"
)

// Speed of light (m/s) and the 60 GHz ISM carrier used by 802.11ad.
const (
	SpeedOfLight = 299_792_458.0
	CarrierHz    = 60.48e9
)

// Wavelength returns the carrier wavelength in meters.
func Wavelength() float64 { return SpeedOfLight / CarrierHz }

// AWV is a complex antenna weight vector, one weight per array element.
// The radiated power scales with ‖w‖², so beams are compared under a
// total-power constraint by normalizing to unit norm (see Normalize).
type AWV []complex128

// Normalize scales w to unit norm (total power constraint). The zero
// vector is returned unchanged.
func (w AWV) Normalize() AWV {
	var p float64
	for _, c := range w {
		p += real(c)*real(c) + imag(c)*imag(c)
	}
	if p == 0 {
		return w
	}
	s := complex(1/math.Sqrt(p), 0)
	out := make(AWV, len(w))
	for i, c := range w {
		out[i] = c * s
	}
	return out
}

// Power returns ‖w‖².
func (w AWV) Power() float64 {
	var p float64
	for _, c := range w {
		p += real(c)*real(c) + imag(c)*imag(c)
	}
	return p
}

// Scale returns w scaled by the real factor s.
func (w AWV) Scale(s float64) AWV {
	out := make(AWV, len(w))
	for i, c := range w {
		out[i] = c * complex(s, 0)
	}
	return out
}

// Add returns the element-wise sum w + v; the vectors must have equal
// length.
func (w AWV) Add(v AWV) AWV {
	out := make(AWV, len(w))
	for i := range w {
		out[i] = w[i] + v[i]
	}
	return out
}

// Array is a uniform planar array (UPA) of isotropic-ish patch elements
// with half-wavelength spacing, plus its mounting pose in the room. The
// Airfide AP in the paper exposes 8 patches; we model the equivalent
// aggregate aperture as one NX×NY UPA.
type Array struct {
	// NX, NY are the element counts along the array's local X and Y axes.
	NX, NY int
	// SpacingWl is the element spacing in wavelengths (0.5 default).
	SpacingWl float64
	// ElementGainDBi is the per-element gain toward boresight.
	ElementGainDBi float64
	// Pos is the array phase-center position in the room.
	Pos geom.Vec3
	// Rot orients the array: local +Z is boresight, +X/+Y span the panel.
	Rot geom.Quat

	// imperfections are fixed per-element amplitude/phase errors that
	// model COTS hardware (quantized phase shifters, mutual coupling):
	// they raise the sidelobe floor from the ideal array factor's deep
	// nulls to the ~−12 dB real devices show — the "irregular patterns"
	// the paper lists as an open challenge for custom beams.
	imperfections AWV
}

// NewArray returns an NX×NY half-wavelength UPA at the given pose, with
// the standard COTS imperfection profile.
func NewArray(nx, ny int, pos geom.Vec3, rot geom.Quat) (*Array, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("phy: array dims %dx%d invalid", nx, ny)
	}
	a := &Array{
		NX: nx, NY: ny,
		SpacingWl:      0.5,
		ElementGainDBi: 5,
		Pos:            pos,
		Rot:            rot,
	}
	a.imperfections = elementErrors(nx*ny, 0.20, 0.08, 12345)
	return a, nil
}

// elementErrors builds deterministic per-element complex gain errors with
// the given phase (rad) and amplitude standard deviations.
func elementErrors(n int, phaseStd, ampStd float64, seed int64) AWV {
	r := rand.New(rand.NewSource(seed))
	out := make(AWV, n)
	for i := range out {
		amp := 1 + ampStd*r.NormFloat64()
		ph := phaseStd * r.NormFloat64()
		out[i] = complex(amp*math.Cos(ph), amp*math.Sin(ph))
	}
	return out
}

// Elements returns the element count.
func (a *Array) Elements() int { return a.NX * a.NY }

// localDir transforms a world direction into array-local coordinates.
func (a *Array) localDir(world geom.Vec3) geom.Vec3 {
	return a.Rot.Conj().Rotate(world)
}

// SteeringVector returns the array response a(u) for a plane wave leaving
// toward the world-frame unit direction dir. Element (m,n) sits at local
// position (m·d, n·d, 0) with d the element spacing.
func (a *Array) SteeringVector(dir geom.Vec3) AWV {
	return a.steer(make(AWV, 0, a.Elements()), a.localDir(dir.Norm()))
}

// steer appends the array response toward the array-local unit
// direction u to dst.
func (a *Array) steer(dst AWV, u geom.Vec3) AWV {
	d := a.SpacingWl * Wavelength()
	k := 2 * math.Pi / Wavelength()
	for n := 0; n < a.NY; n++ {
		for m := 0; m < a.NX; m++ {
			phase := k * d * (float64(m)*u.X + float64(n)*u.Y)
			dst = append(dst, cmplx.Exp(complex(0, phase)))
		}
	}
	return dst
}

// SteerTo returns the unit-power AWV that points the main lobe at the
// world direction dir (conjugate beamforming).
func (a *Array) SteerTo(dir geom.Vec3) AWV {
	sv := a.SteeringVector(dir)
	out := make(AWV, len(sv))
	for i, c := range sv {
		out[i] = cmplx.Conj(c)
	}
	return AWV(out).Normalize()
}

// GainDBi returns the transmit gain of weight vector w toward world
// direction dir, including the element gain and a simple cosine element
// pattern (no radiation behind the panel).
func (a *Array) GainDBi(w AWV, dir geom.Vec3) float64 {
	u := a.localDir(dir.Norm())
	if u.Z <= 0 {
		return behindPanelDBi
	}
	return arrayFactorDB(a.weigh(make(AWV, len(w)), w), a.steer(make(AWV, 0, a.Elements()), u)) + a.elementGain(u.Z)
}

// behindPanelDBi is the gain toward directions behind the panel: deep in
// the back lobe.
const behindPanelDBi = -60

// weigh stores in dst the weights the hardware actually radiates: w with
// each element's fixed imperfection applied. len(dst) must be len(w).
func (a *Array) weigh(dst, w AWV) AWV {
	for i := range w {
		e := complex(1, 0)
		if i < len(a.imperfections) {
			e = a.imperfections[i]
		}
		dst[i] = w[i] * e
	}
	return dst
}

// arrayFactorDB returns 10·log10 |Σ we[i]·sv[i]|² for radiated weights we
// (see weigh) and steering vector sv. For unit-norm weights it peaks at N,
// the array gain.
func arrayFactorDB(we, sv AWV) float64 {
	var acc complex128
	sv = sv[:len(we)]
	for i := range we {
		acc += we[i] * sv[i]
	}
	af := cmplx.Abs(acc)
	if af < 1e-9 {
		af = 1e-9
	}
	return 10 * math.Log10(af*af)
}

// elementGain is the element pattern toward a direction whose local Z
// component is uz > 0: cos^1.2 roll-off toward the panel plane.
func (a *Array) elementGain(uz float64) float64 {
	return a.ElementGainDBi + 10*1.2*math.Log10(math.Max(uz, 1e-3))
}

// QuantizeAWV maps an ideal weight vector onto what a COTS phased array
// can realize: phases rounded to 2^phaseBits steps and, when phaseOnly is
// set (true for virtually all 802.11ad hardware, which has phase shifters
// but no per-element amplitude control), amplitudes forced uniform. The
// result is re-normalized to unit power. phaseBits <= 0 leaves phases
// continuous.
func QuantizeAWV(w AWV, phaseBits int, phaseOnly bool) AWV {
	out := make(AWV, len(w))
	steps := 0.0
	if phaseBits > 0 {
		steps = float64(uint64(1) << uint(phaseBits))
	}
	for i, c := range w {
		amp := cmplx.Abs(c)
		if amp == 0 {
			out[i] = 0
			continue
		}
		ph := math.Atan2(imag(c), real(c))
		if steps > 0 {
			ph = math.Round(ph/(2*math.Pi)*steps) / steps * 2 * math.Pi
		}
		if phaseOnly {
			amp = 1
		}
		out[i] = complex(amp*math.Cos(ph), amp*math.Sin(ph))
	}
	return out.Normalize()
}
