package phy

import (
	"math"
	"math/rand"

	"volcast/internal/geom"
)

// Room is the shoebox environment the ray tracer works in: axis-aligned
// walls, floor and ceiling, each reflecting 60 GHz energy with a loss.
type Room struct {
	// Bounds is the interior volume.
	Bounds geom.AABB
	// WallLossDB is the reflection loss of walls/ceiling/floor at 60 GHz
	// (typical painted drywall: 5–10 dB).
	WallLossDB float64
}

// DefaultRoom returns the lab-sized room used by the experiments:
// 10 m × 8 m footprint, 3 m ceiling.
func DefaultRoom() Room {
	return Room{
		Bounds:     geom.NewAABB(geom.V(-5, 0, -4), geom.V(5, 3, 4)),
		WallLossDB: 8,
	}
}

// Body is a human blockage model: a vertical cylinder. mmWave links whose
// path passes through a body suffer tens of dB of loss — the blockage
// problem the paper's cross-layer mitigation targets.
type Body struct {
	// Center is the cylinder axis position at floor level.
	Center geom.Vec3
	// Radius is the cylinder radius (≈0.25 m for a torso).
	Radius float64
	// Height is the cylinder height (≈1.8 m).
	Height float64
}

// DefaultBody returns a body at the given floor position with typical
// human dimensions.
func DefaultBody(at geom.Vec3) Body {
	return Body{Center: geom.V(at.X, 0, at.Z), Radius: 0.25, Height: 1.8}
}

// BlocksSegment reports whether the segment from a to b passes through
// the body cylinder.
func (b Body) BlocksSegment(a, c geom.Vec3) bool {
	// Work in 2D (XZ): distance from cylinder axis to the segment.
	ax, az := a.X, a.Z
	cx, cz := c.X, c.Z
	px, pz := b.Center.X, b.Center.Z
	dx, dz := cx-ax, cz-az
	l2 := dx*dx + dz*dz
	t := 0.0
	if l2 > 0 {
		t = ((px-ax)*dx + (pz-az)*dz) / l2
		t = geom.Clamp(t, 0, 1)
	}
	qx, qz := ax+t*dx, az+t*dz
	ddx, ddz := px-qx, pz-qz
	if ddx*ddx+ddz*ddz > b.Radius*b.Radius {
		return false
	}
	// Height check at the closest-approach parameter.
	y := a.Y + t*(c.Y-a.Y)
	return y >= 0 && y <= b.Height
}

// Path is one propagation path from TX to RX.
type Path struct {
	// Dir is the departure direction at the transmitter.
	Dir geom.Vec3
	// Length is the total path length in meters.
	Length float64
	// ExtraLossDB accumulates reflection and blockage losses.
	ExtraLossDB float64
	// Reflections counts wall bounces (0 = LOS).
	Reflections int
	// Blocked reports whether a body intersects the path.
	Blocked bool
}

// maxPaths bounds a trace: the LOS, one bounce off each of the six
// surfaces, and the 24 two-bounce pairs of surfaces on distinct axes.
const maxPaths = 1 + 6 + 6*4

// bounces holds each traced path's reflection points, transmitter side
// first (Path.Reflections of them).
type bounces [maxPaths][2]geom.Vec3

// blocks reports whether the body intersects any segment of the path
// tx → via[:refl] → rx.
func (b Body) blocks(tx, rx geom.Vec3, via *[2]geom.Vec3, refl int) bool {
	a := tx
	for _, v := range via[:refl] {
		if b.BlocksSegment(a, v) {
			return true
		}
		a = v
	}
	return b.BlocksSegment(a, rx)
}

// Channel is the ray-traced propagation model: LOS plus first-order
// reflections off the room's six surfaces, with human-body blockage.
// It is the offline stand-in for the commercial Remcom simulator the
// paper used for Fig. 3d.
type Channel struct {
	Room Room
	// BodyLossDB is the penetration loss a blocked path suffers
	// (measured human blockage at 60 GHz: 20–35 dB).
	BodyLossDB float64
	// Bodies are the current blockers.
	Bodies []Body
	// SecondOrder adds two-bounce reflections (wall→wall, wall→ceiling,
	// …). They sit ~16 dB below LOS and matter mainly as a last-resort
	// fallback when both the LOS and every first-order path are blocked.
	SecondOrder bool
}

// NewChannel returns a channel model for the room with the standard
// 25 dB body loss.
func NewChannel(room Room) *Channel {
	return &Channel{Room: room, BodyLossDB: 25}
}

// SetBodies replaces the blockage set (typically the other users'
// positions each frame).
func (ch *Channel) SetBodies(bodies []Body) { ch.Bodies = bodies }

// Paths enumerates the propagation paths from tx to rx: the LOS path and
// one image-method reflection per room surface, with the channel's
// current bodies applied. Paths whose reflection point falls outside the
// surface are discarded.
func (ch *Channel) Paths(tx, rx geom.Vec3) []Path {
	var via bounces
	out := ch.trace(make([]Path, 0, 7), &via, tx, rx)
	for i := range out {
		for _, body := range ch.Bodies {
			if body.blocks(tx, rx, &via[i], out[i].Reflections) {
				out[i].Blocked = true
				out[i].ExtraLossDB += ch.BodyLossDB
				break
			}
		}
	}
	return out
}

// mirror is one reflecting plane of the room: coordinate axis (0=X, 1=Y,
// 2=Z) and the plane's position along it.
type mirror struct {
	axis  int
	coord float64
}

// image mirrors p across the plane.
func (m mirror) image(p geom.Vec3) geom.Vec3 {
	switch m.axis {
	case 0:
		p.X = 2*m.coord - p.X
	case 1:
		p.Y = 2*m.coord - p.Y
	default:
		p.Z = 2*m.coord - p.Z
	}
	return p
}

// cross returns where the segment a→c crosses the plane, provided the
// crossing is interior to the segment and inside the bounds b.
func (m mirror) cross(b geom.AABB, a, c geom.Vec3) (geom.Vec3, bool) {
	d := c.Sub(a)
	var denom, num float64
	switch m.axis {
	case 0:
		denom, num = d.X, m.coord-a.X
	case 1:
		denom, num = d.Y, m.coord-a.Y
	default:
		denom, num = d.Z, m.coord-a.Z
	}
	if math.Abs(denom) < 1e-12 {
		return geom.Vec3{}, false
	}
	t := num / denom
	if t <= 1e-6 || t >= 1-1e-6 {
		return geom.Vec3{}, false
	}
	p := a.Add(d.Scale(t))
	return p, b.Contains(p)
}

// trace appends the geometric paths from tx to rx to the empty dst, and
// stores their reflection points in via: the LOS, the image-method
// reflection off each room surface and, with SecondOrder, the two-bounce
// paths over distinct-axis surface pairs (the dominant double bounces in
// a shoebox room). ExtraLossDB holds the reflection loss only; blockage
// is the caller's to apply (Paths, Link).
func (ch *Channel) trace(dst []Path, via *bounces, tx, rx geom.Vec3) []Path {
	dst = append(dst, Path{Dir: rx.Sub(tx).Norm(), Length: tx.Dist(rx)})
	b := ch.Room.Bounds
	mirrors := [6]mirror{
		{0, b.Min.X}, {0, b.Max.X},
		{1, b.Min.Y}, {1, b.Max.Y},
		{2, b.Min.Z}, {2, b.Max.Z},
	}
	b = b.Expand(1e-9)
	// Image method: mirror RX across the plane; the straight segment
	// tx→image crosses the plane at the reflection point.
	for _, m := range mirrors {
		rp, ok := m.cross(b, tx, m.image(rx))
		if !ok {
			continue
		}
		via[len(dst)] = [2]geom.Vec3{rp}
		dst = append(dst, Path{
			Dir:         rp.Sub(tx).Norm(),
			Length:      tx.Dist(rp) + rp.Dist(rx),
			ExtraLossDB: ch.Room.WallLossDB,
			Reflections: 1,
		})
	}
	if !ch.SecondOrder {
		return dst
	}
	for _, mA := range mirrors {
		for _, mB := range mirrors {
			if mA.axis == mB.axis {
				continue
			}
			// Double image: rx mirrored across B then across A gives the
			// first bounce on A; the second bounce on B lies along
			// rpA→(rx mirrored across B).
			imgB := mB.image(rx)
			rpA, ok := mA.cross(b, tx, mA.image(imgB))
			if !ok {
				continue
			}
			rpB, ok := mB.cross(b, rpA, imgB)
			if !ok {
				continue
			}
			via[len(dst)] = [2]geom.Vec3{rpA, rpB}
			dst = append(dst, Path{
				Dir:         rpA.Sub(tx).Norm(),
				Length:      tx.Dist(rpA) + rpA.Dist(rpB) + rpB.Dist(rx),
				ExtraLossDB: 2 * ch.Room.WallLossDB,
				Reflections: 2,
			})
		}
	}
	return dst
}

// FSPL returns the 60 GHz free-space path loss in dB for distance d.
func FSPL(d float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	return 20 * math.Log10(4*math.Pi*d/Wavelength())
}

// Fading is a temporal small-scale fading process: an Ornstein-Uhlenbeck
// excursion in dB applied on top of the deterministic ray-traced RSS,
// modelling the residual fluctuation measured on static 60 GHz links
// (breathing, small reflector motion). It is deterministic given its
// seed and is stepped explicitly so simulations stay reproducible.
type Fading struct {
	// StdDB is the stationary standard deviation of the excursion.
	StdDB float64
	// TauS is the correlation time constant in seconds.
	TauS float64

	state float64
	rng   *rand.Rand
}

// NewFading returns a fading process with typical indoor 60 GHz numbers
// (σ = 1.5 dB, τ = 0.5 s).
func NewFading(seed int64) *Fading {
	return &Fading{StdDB: 1.5, TauS: 0.5, rng: rand.New(rand.NewSource(seed))}
}

// Step advances the process by dt seconds and returns the current
// excursion in dB.
func (f *Fading) Step(dt float64) float64 {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(1))
	}
	tau := f.TauS
	if tau <= 0 {
		tau = 0.5
	}
	theta := 1 / tau
	sigma := f.StdDB * math.Sqrt(2*theta)
	f.state += -theta*f.state*dt + sigma*math.Sqrt(dt)*f.rng.NormFloat64()
	return f.state
}

// OffsetDB returns the current excursion without advancing time.
func (f *Fading) OffsetDB() float64 { return f.state }
