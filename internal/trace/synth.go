package trace

import (
	"math"
	"math/rand"

	"volcast/internal/geom"
)

// GenConfig configures the synthetic study generator.
type GenConfig struct {
	// Users is the number of participants to generate.
	Users int
	// Device is the participants' viewing device.
	Device Device
	// Frames is the trace length in samples.
	Frames int
	// Hz is the sampling rate (the study used 30).
	Hz int
	// Seed makes generation deterministic. Participants derive their own
	// sub-seeds, so individual traces are independent but reproducible.
	// The shared saliency schedule also derives from Seed, so groups that
	// watched the same video must use the same Seed.
	Seed int64
	// UserOffset offsets both the generated UserIDs and the per-user
	// sub-seeds, letting several groups share one Seed (same video, same
	// saliency schedule) without correlated individual behaviour.
	UserOffset int
	// ContentCenter is the point the content stands on (floor level).
	ContentCenter geom.Vec3
	// ContentHeight is the content's height; attention targets live on
	// the vertical span above ContentCenter.
	ContentHeight float64
	// CenterAz rotates the group's placement arc around the content
	// (radians; 0 keeps the arc centered on +Z). Experiments use it to
	// seat users on the access-point side of the room.
	CenterAz float64
	// POIs are the floor positions of the scene's attention targets
	// (performers). Empty means a single target at ContentCenter. With
	// several targets, the shared saliency schedule switches the group's
	// attention between them and users occasionally deviate to a
	// performer of their own choice — the source of the IoU spread in
	// Fig. 2.
	POIs []geom.Vec3
}

// deviceEnvelope are the per-device mobility parameters. Headset users
// walk freely around the content; phone users mostly stand and pan,
// orbiting slowly if at all. These envelopes are what produce the paper's
// Fig. 2b ordering (PH similarity > HM similarity).
type deviceEnvelope struct {
	orbitSpeedMax float64 // rad/s around the content
	radialJitter  float64 // m, OU noise on viewing distance
	wanderStd     float64 // rad, personal gaze deviation from shared POI
	lookAwayProb  float64 // per-second probability of a look-away episode
	deviateProb   float64 // per-second probability of watching a performer of one's own choice
	deviateDurMax float64 // s, max length of such an episode
	baseRadiusMin float64 // m
	baseRadiusMax float64 // m
	spreadAngle   float64 // rad, initial azimuth spread of the group
}

func envelopeFor(d Device) deviceEnvelope {
	switch d {
	case DevicePhone:
		return deviceEnvelope{
			orbitSpeedMax: 0.04,
			radialJitter:  0.05,
			wanderStd:     0.05,
			lookAwayProb:  0.02,
			deviateProb:   0.06,
			deviateDurMax: 1.5,
			baseRadiusMin: 1.8,
			baseRadiusMax: 2.6,
			spreadAngle:   geom.Rad(50),
		}
	default: // headset
		return deviceEnvelope{
			orbitSpeedMax: 0.16,
			radialJitter:  0.25,
			wanderStd:     0.16,
			lookAwayProb:  0.08,
			deviateProb:   0.22,
			deviateDurMax: 3.5,
			baseRadiusMin: 1.2,
			baseRadiusMax: 3.2,
			spreadAngle:   geom.Rad(140),
		}
	}
}

// pois returns the scene's attention anchors (floor positions).
func pois(cfg GenConfig) []geom.Vec3 {
	if len(cfg.POIs) == 0 {
		return []geom.Vec3{cfg.ContentCenter}
	}
	return cfg.POIs
}

// activePerformer returns which attention anchor holds the group's shared
// attention at time t. The schedule is deterministic in (Seed, t): dwell
// segments of 2.5–5.5 s, switching anchors pseudo-randomly, modelling the
// content's saliency (the performer currently doing something).
func activePerformer(cfg GenConfig, t float64) int {
	anchors := pois(cfg)
	if len(anchors) == 1 {
		return 0
	}
	// Walk dwell segments from t=0; segment lengths derive from a cheap
	// deterministic hash of (seed, segment index).
	seg := 0
	acc := 0.0
	for {
		h := splitmix(uint64(cfg.Seed) ^ uint64(seg)*0x9e3779b97f4a7c15)
		dwell := 2.5 + 3.0*float64(h%1000)/1000.0
		if acc+dwell > t {
			return int(h>>10) % len(anchors)
		}
		acc += dwell
		seg++
		if seg > 10000 { // defensive bound; traces are seconds long
			return 0
		}
	}
}

// splitmix is the SplitMix64 mixer, used for small deterministic hashes.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sharedPOI returns the shared content point of interest at time t: the
// currently salient performer's upper body, with a gentle sweep. It is a
// deterministic function of (Seed, t) only, which is what couples the
// users' viewports together.
func sharedPOI(cfg GenConfig, t float64) geom.Vec3 {
	return performerPOI(cfg, activePerformer(cfg, t), t)
}

// performerPOI returns the gaze target on performer idx at time t.
func performerPOI(cfg GenConfig, idx int, t float64) geom.Vec3 {
	anchors := pois(cfg)
	if idx < 0 || idx >= len(anchors) {
		idx = 0
	}
	h := cfg.ContentHeight
	// Attention dwells around the upper body and occasionally sweeps down.
	y := h*0.75 + 0.18*h*math.Sin(0.35*t) + 0.07*h*math.Sin(1.3*t)
	x := 0.25 * math.Sin(0.5*t)
	z := 0.15 * math.Cos(0.23*t)
	return anchors[idx].Add(geom.V(x, y, z))
}

// Generate produces a deterministic synthetic study group.
func Generate(cfg GenConfig) *Study {
	if cfg.Hz <= 0 {
		cfg.Hz = 30
	}
	if cfg.ContentHeight <= 0 {
		cfg.ContentHeight = 1.8
	}
	env := envelopeFor(cfg.Device)
	study := &Study{Traces: make([]*Trace, cfg.Users)}
	for u := 0; u < cfg.Users; u++ {
		study.Traces[u] = generateUser(cfg, env, cfg.UserOffset+u, u, cfg.Users)
	}
	return study
}

func generateUser(cfg GenConfig, env deviceEnvelope, userID, slot, slots int) *Trace {
	r := rand.New(rand.NewSource(cfg.Seed + int64(userID+1)*104729))
	dt := 1.0 / float64(cfg.Hz)

	// Initial placement: stratified azimuth slots with personal jitter —
	// co-located viewers space themselves out rather than stand in each
	// other's line of sight — plus a personal radius.
	slotWidth := 2 * env.spreadAngle / float64(slots)
	azBase := cfg.CenterAz - env.spreadAngle + slotWidth*(float64(slot)+0.5)
	az := azBase + (r.Float64()-0.5)*slotWidth*0.6
	radius := env.baseRadiusMin + r.Float64()*(env.baseRadiusMax-env.baseRadiusMin)
	orbit := (r.Float64()*2 - 1) * env.orbitSpeedMax
	// Some users slowly converge toward the group's median azimuth over
	// the session (the "drift together" effect visible in the paper's
	// Fig. 2a pair (3,9), whose IoU rises to 1 by the end).
	converge := r.Float64() * 0.35

	// Second-order smooth noise: Ornstein-Uhlenbeck *velocities*
	// integrated into positions/angles, giving the C¹-continuous motion
	// real inertia produces (head and body velocity cannot jump).
	var radOU, wanderYawOU, wanderPitchOU float64    // integrated states
	var radVel, wanderYawVel, wanderPitchVel float64 // OU velocities
	var rot geom.Quat
	lookAway := 0.0 // remaining seconds of a look-away episode
	var lookDir geom.Vec3
	deviate := 0.0  // remaining seconds of a personal performer choice
	deviateIdx := 0 // which performer the user chose
	anchors := pois(cfg)

	tr := &Trace{UserID: userID, Device: cfg.Device, Hz: cfg.Hz,
		Samples: make([]Sample, cfg.Frames)}
	eyeHeight := 1.5 + r.Float64()*0.2
	if cfg.Device == DevicePhone {
		eyeHeight = 1.35 + r.Float64()*0.2 // held phone slightly below eyes
	}

	for i := 0; i < cfg.Frames; i++ {
		t := float64(i) * dt
		// Azimuth evolves: personal orbit + convergence pull toward 0.
		az += orbit*dt - converge*(az-cfg.CenterAz)*dt*0.12
		// OU velocities (mean-reverting) integrated into the states; both
		// the velocity and the state revert, bounding the excursions while
		// keeping the motion inertially smooth at 30 Hz — which is also
		// what makes short-horizon linear viewport prediction work.
		radVel += -1.5*radVel*dt + env.radialJitter*1.2*math.Sqrt(dt)*r.NormFloat64()
		radOU += radVel*dt - 0.4*radOU*dt
		wanderYawVel += -1.2*wanderYawVel*dt + env.wanderStd*1.5*math.Sqrt(dt)*r.NormFloat64()
		wanderYawOU += wanderYawVel*dt - 0.5*wanderYawOU*dt
		wanderPitchVel += -1.2*wanderPitchVel*dt + env.wanderStd*0.9*math.Sqrt(dt)*r.NormFloat64()
		wanderPitchOU += wanderPitchVel*dt - 0.5*wanderPitchOU*dt

		rad := geom.Clamp(radius+radOU, 0.8, 4.5)
		pos := cfg.ContentCenter.Add(geom.V(rad*math.Sin(az), eyeHeight, rad*math.Cos(az)))

		// Gaze: track the shared POI with personal wander; occasionally
		// look away entirely (checking surroundings, other users, UI).
		if lookAway <= 0 && r.Float64() < env.lookAwayProb*dt {
			lookAway = 0.4 + r.Float64()*1.2
			lookDir = geom.FromAzEl(r.Float64()*2*math.Pi-math.Pi, (r.Float64()-0.3)*0.8)
		}
		if deviate <= 0 && len(anchors) > 1 && r.Float64() < env.deviateProb*dt {
			deviate = 0.8 + r.Float64()*env.deviateDurMax
			deviateIdx = r.Intn(len(anchors))
		}
		var dir geom.Vec3
		switch {
		case lookAway > 0:
			lookAway -= dt
			dir = lookDir
		case deviate > 0:
			deviate -= dt
			dir = performerPOI(cfg, deviateIdx, t).Sub(pos).Norm()
			wq := geom.FromEuler(wanderYawOU, wanderPitchOU, 0)
			dir = wq.Rotate(dir)
		default:
			dir = sharedPOI(cfg, t).Sub(pos).Norm()
			// Personal wander perturbs the gaze around the POI.
			wq := geom.FromEuler(wanderYawOU, wanderPitchOU, 0)
			dir = wq.Rotate(dir)
		}
		target := geom.LookRotation(dir, geom.V(0, 1, 0))
		// Heads slew, they don't snap: bound the angular speed.
		const maxSlew = 3.5 // rad/s
		if i == 0 {
			rot = target
		} else {
			ang := rot.AngleTo(target)
			if ang > 1e-9 {
				f := maxSlew * dt / ang
				if f > 1 {
					f = 1
				}
				rot = rot.Slerp(target, f)
			}
		}
		tr.Samples[i] = Sample{T: t, Pose: geom.Pose{Pos: pos, Rot: rot}}
	}
	return tr
}

// StudyPOIs are the stage positions of the three-performer scene the
// synthetic study watches (matching pointcloud.DefaultSceneConfig).
func StudyPOIs() []geom.Vec3 {
	return []geom.Vec3{
		geom.V(-1.8, 0, 0.4),
		geom.V(0, 0, -0.3),
		geom.V(1.8, 0, 0.5),
	}
}

// GenerateStudy generates the full 32-participant study: 16 headset (HM)
// users followed by 16 phone (PH) users with globally unique user IDs,
// all watching the same three-performer scene under the same shared
// saliency schedule.
func GenerateStudy(frames int, seed int64) *Study {
	hm := Generate(GenConfig{
		Users: 16, Device: DeviceHeadset, Frames: frames, Hz: 30, Seed: seed,
		ContentHeight: 1.8, POIs: StudyPOIs(),
	})
	ph := Generate(GenConfig{
		Users: 16, Device: DevicePhone, Frames: frames, Hz: 30, Seed: seed,
		UserOffset: 16, ContentHeight: 1.8, POIs: StudyPOIs(),
	})
	out := &Study{}
	out.Traces = append(out.Traces, hm.Traces...)
	out.Traces = append(out.Traces, ph.Traces...)
	return out
}
