// Package trace provides 6DoF viewport trajectories: the data type, CSV
// serialization, kinematic helpers, and a deterministic synthetic
// generator standing in for the paper's IRB-approved 32-participant user
// study. The study's participants watched volumetric videos on either a
// Magic Leap One headset (group "HM") or a smartphone (group "PH"); the
// generator reproduces the behavioural difference the paper reports —
// headset users move more freely, so their pairwise viewport similarity is
// lower — via a shared content-saliency attention model with per-device
// mobility envelopes.
package trace

import (
	"fmt"

	"volcast/internal/geom"
)

// Device is the viewing device class of the user study.
type Device int

// The two study groups.
const (
	DeviceHeadset Device = iota // "HM": Magic Leap One
	DevicePhone                 // "PH": smartphone
)

// String implements fmt.Stringer using the paper's group labels.
func (d Device) String() string {
	switch d {
	case DeviceHeadset:
		return "HM"
	case DevicePhone:
		return "PH"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// Sample is one timestamped 6DoF viewport pose.
type Sample struct {
	// T is the sample time in seconds from trace start.
	T float64
	// Pose is the viewport pose at T.
	Pose geom.Pose
}

// Trace is one user's viewport trajectory, sampled at a fixed rate
// (the study recorded 30 Hz).
type Trace struct {
	// UserID identifies the participant (0-based).
	UserID int
	// Device is the participant's study group.
	Device Device
	// Hz is the sampling rate.
	Hz int
	// Samples are the poses in time order.
	Samples []Sample
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// PoseAt returns the pose at sample index i, clamping out-of-range indices
// to the trace ends so callers can look slightly past either end.
func (t *Trace) PoseAt(i int) geom.Pose {
	if len(t.Samples) == 0 {
		return geom.Pose{Rot: geom.QuatIdent()}
	}
	if i < 0 {
		i = 0
	}
	if i >= len(t.Samples) {
		i = len(t.Samples) - 1
	}
	return t.Samples[i].Pose
}

// PoseAtTime linearly interpolates the pose at time tsec.
func (t *Trace) PoseAtTime(tsec float64) geom.Pose {
	if len(t.Samples) == 0 {
		return geom.Pose{Rot: geom.QuatIdent()}
	}
	if t.Hz <= 0 {
		return t.Samples[0].Pose
	}
	f := tsec * float64(t.Hz)
	i := int(f)
	if i < 0 {
		return t.Samples[0].Pose
	}
	if i >= len(t.Samples)-1 {
		return t.Samples[len(t.Samples)-1].Pose
	}
	return t.Samples[i].Pose.Lerp(t.Samples[i+1].Pose, f-float64(i))
}

// PathLength returns the total translational distance of the trace.
func (t *Trace) PathLength() float64 {
	total := 0.0
	for i := 1; i < len(t.Samples); i++ {
		total += t.Samples[i].Pose.Pos.Dist(t.Samples[i-1].Pose.Pos)
	}
	return total
}

// Study is a complete multi-user trace collection for one video.
type Study struct {
	// Traces holds one trace per participant, indexed by UserID.
	Traces []*Trace
}

// ByDevice returns the traces of one study group.
//
// Kept: the study tests compare the headset and phone groups with it.
func (s *Study) ByDevice(d Device) []*Trace {
	var out []*Trace
	for _, t := range s.Traces {
		if t.Device == d {
			out = append(out, t)
		}
	}
	return out
}

// Users returns the number of participants.
func (s *Study) Users() int { return len(s.Traces) }
