package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"volcast/internal/geom"
)

func TestDeviceString(t *testing.T) {
	if DeviceHeadset.String() != "HM" || DevicePhone.String() != "PH" {
		t.Error("device labels wrong")
	}
	if Device(9).String() == "" {
		t.Error("unknown device empty")
	}
}

func TestPoseAtClamping(t *testing.T) {
	tr := &Trace{Hz: 30, Samples: []Sample{
		{T: 0, Pose: geom.Pose{Pos: geom.V(0, 0, 0), Rot: geom.QuatIdent()}},
		{T: 1.0 / 30, Pose: geom.Pose{Pos: geom.V(1, 0, 0), Rot: geom.QuatIdent()}},
	}}
	if got := tr.PoseAt(-5).Pos; got != (geom.Vec3{}) {
		t.Errorf("PoseAt(-5) = %v", got)
	}
	if got := tr.PoseAt(100).Pos; got != geom.V(1, 0, 0) {
		t.Errorf("PoseAt(100) = %v", got)
	}
	empty := &Trace{}
	if got := empty.PoseAt(0).Rot; got != geom.QuatIdent() {
		t.Errorf("empty PoseAt rot = %v", got)
	}
}

func TestPoseAtTimeInterpolates(t *testing.T) {
	tr := &Trace{Hz: 10, Samples: []Sample{
		{T: 0, Pose: geom.Pose{Pos: geom.V(0, 0, 0), Rot: geom.QuatIdent()}},
		{T: 0.1, Pose: geom.Pose{Pos: geom.V(1, 0, 0), Rot: geom.QuatIdent()}},
		{T: 0.2, Pose: geom.Pose{Pos: geom.V(2, 0, 0), Rot: geom.QuatIdent()}},
	}}
	if got := tr.PoseAtTime(0.05).Pos; !got.ApproxEq(geom.V(0.5, 0, 0), 1e-9) {
		t.Errorf("PoseAtTime(0.05) = %v", got)
	}
	if got := tr.PoseAtTime(-1).Pos; got != (geom.Vec3{}) {
		t.Errorf("PoseAtTime(-1) = %v", got)
	}
	if got := tr.PoseAtTime(99).Pos; got != geom.V(2, 0, 0) {
		t.Errorf("PoseAtTime(99) = %v", got)
	}
}

func TestKinematics(t *testing.T) {
	// Constant velocity 3 m/s along X at 30 Hz.
	tr := &Trace{Hz: 30}
	for i := 0; i < 30; i++ {
		tr.Samples = append(tr.Samples, Sample{
			T:    float64(i) / 30,
			Pose: geom.Pose{Pos: geom.V(3*float64(i)/30, 0, 0), Rot: geom.QuatIdent()},
		})
	}
	if got := tr.PathLength(); math.Abs(got-2.9) > 1e-9 {
		t.Errorf("PathLength = %v", got)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := GenerateStudy(60, 42)
	b := GenerateStudy(60, 42)
	if a.Users() != 32 || b.Users() != 32 {
		t.Fatalf("study sizes %d, %d", a.Users(), b.Users())
	}
	for u := range a.Traces {
		for i := range a.Traces[u].Samples {
			pa, pb := a.Traces[u].Samples[i].Pose, b.Traces[u].Samples[i].Pose
			if pa.Pos != pb.Pos || pa.Rot != pb.Rot {
				t.Fatalf("non-deterministic at user %d sample %d", u, i)
			}
		}
	}
	c := GenerateStudy(60, 43)
	if c.Traces[0].Samples[30].Pose.Pos == a.Traces[0].Samples[30].Pose.Pos {
		t.Error("different seeds produced identical trace")
	}
}

func TestStudyComposition(t *testing.T) {
	s := GenerateStudy(30, 1)
	hm := s.ByDevice(DeviceHeadset)
	ph := s.ByDevice(DevicePhone)
	if len(hm) != 16 || len(ph) != 16 {
		t.Fatalf("groups %d HM, %d PH", len(hm), len(ph))
	}
	seen := map[int]bool{}
	for _, tr := range s.Traces {
		if seen[tr.UserID] {
			t.Fatalf("duplicate user id %d", tr.UserID)
		}
		seen[tr.UserID] = true
		if tr.Len() != 30 {
			t.Fatalf("trace length %d", tr.Len())
		}
		if tr.Hz != 30 {
			t.Fatalf("trace Hz %d", tr.Hz)
		}
	}
}

func TestTracesLookAtContent(t *testing.T) {
	s := GenerateStudy(300, 7)
	for _, tr := range s.Traces {
		looking := 0
		for i := 0; i < tr.Len(); i += 10 {
			p := tr.PoseAt(i)
			for _, poi := range StudyPOIs() {
				toContent := poi.Add(geom.V(0, 1.2, 0)).Sub(p.Pos).Norm()
				if p.Rot.Forward().Dot(toContent) > 0.5 {
					looking++
					break
				}
			}
		}
		if frac := float64(looking) / float64((tr.Len()+9)/10); frac < 0.5 {
			t.Errorf("user %d (%v) looks at the stage only %.0f%% of the time",
				tr.UserID, tr.Device, frac*100)
		}
	}
}

func TestHeadsetMovesMoreThanPhone(t *testing.T) {
	s := GenerateStudy(300, 11)
	avgPath := func(trs []*Trace) float64 {
		sum := 0.0
		for _, tr := range trs {
			sum += tr.PathLength()
		}
		return sum / float64(len(trs))
	}
	hm := avgPath(s.ByDevice(DeviceHeadset))
	ph := avgPath(s.ByDevice(DevicePhone))
	if hm <= ph {
		t.Errorf("HM path %v not larger than PH path %v", hm, ph)
	}
}

func TestTracesSmooth(t *testing.T) {
	s := GenerateStudy(300, 13)
	for _, tr := range s.Traces {
		for i := 1; i < tr.Len(); i++ {
			step := tr.Samples[i].Pose.Pos.Dist(tr.Samples[i-1].Pose.Pos)
			// No teleporting: < 1 m per 33 ms sample (30 m/s bound).
			if step > 1 {
				t.Fatalf("user %d jumped %.2f m at sample %d", tr.UserID, step, i)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := GenerateStudy(20, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Users() != s.Users() {
		t.Fatalf("users %d != %d", got.Users(), s.Users())
	}
	for u := range s.Traces {
		a, b := s.Traces[u], got.Traces[u]
		if a.UserID != b.UserID || a.Device != b.Device || a.Hz != b.Hz || a.Len() != b.Len() {
			t.Fatalf("meta mismatch user %d: %+v vs %+v", u, a, b)
		}
		for i := range a.Samples {
			if !a.Samples[i].Pose.Pos.ApproxEq(b.Samples[i].Pose.Pos, 1e-12) {
				t.Fatalf("pos mismatch user %d sample %d", u, i)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"not,a,header,x,x,x,x,x,x,x\n1,HM,0,0,0,0,1,0,0,0\n",
		"user,device,t,px,py,pz,qw,qx,qy,qz\nBAD,HM,0,0,0,0,1,0,0,0\n",
		"user,device,t,px,py,pz,qw,qx,qy,qz\n1,XX,0,0,0,0,1,0,0,0\n",
		"user,device,t,px,py,pz,qw,qx,qy,qz\n1,HM,zz,0,0,0,1,0,0,0\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func BenchmarkGenerateStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GenerateStudy(300, int64(i))
	}
}
