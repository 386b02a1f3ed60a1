package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"volcast/internal/geom"
)

// csvHeader is the column layout of the trace interchange format: one row
// per sample, matching how 6DoF study logs are usually published
// (timestamp, position, orientation quaternion).
var csvHeader = []string{"user", "device", "t", "px", "py", "pz", "qw", "qx", "qy", "qz"}

// WriteCSV writes the study in the interchange format.
func WriteCSV(w io.Writer, s *Study) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for _, t := range s.Traces {
		for _, smp := range t.Samples {
			row[0] = strconv.Itoa(t.UserID)
			row[1] = t.Device.String()
			row[2] = strconv.FormatFloat(smp.T, 'g', -1, 64)
			row[3] = strconv.FormatFloat(smp.Pose.Pos.X, 'g', -1, 64)
			row[4] = strconv.FormatFloat(smp.Pose.Pos.Y, 'g', -1, 64)
			row[5] = strconv.FormatFloat(smp.Pose.Pos.Z, 'g', -1, 64)
			row[6] = strconv.FormatFloat(smp.Pose.Rot.W, 'g', -1, 64)
			row[7] = strconv.FormatFloat(smp.Pose.Rot.X, 'g', -1, 64)
			row[8] = strconv.FormatFloat(smp.Pose.Rot.Y, 'g', -1, 64)
			row[9] = strconv.FormatFloat(smp.Pose.Rot.Z, 'g', -1, 64)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a study from the interchange format. Sample rate is
// inferred from the first user's timestamps.
//
// Kept: DESIGN §3 and §5 promise it, so that recorded traces can replace
// the synthetic ones.
func ReadCSV(r io.Reader) (*Study, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if recs[0][0] != "user" {
		return nil, fmt.Errorf("trace: missing header row")
	}
	byUser := map[int]*Trace{}
	var order []int
	for li, rec := range recs[1:] {
		uid, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad user id %q", li+2, rec[0])
		}
		var dev Device
		switch rec[1] {
		case "HM":
			dev = DeviceHeadset
		case "PH":
			dev = DevicePhone
		default:
			return nil, fmt.Errorf("trace: line %d: unknown device %q", li+2, rec[1])
		}
		f := make([]float64, 8)
		for i := 0; i < 8; i++ {
			v, err := strconv.ParseFloat(rec[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d col %d: %w", li+2, 3+i, err)
			}
			f[i] = v
		}
		t, ok := byUser[uid]
		if !ok {
			t = &Trace{UserID: uid, Device: dev}
			byUser[uid] = t
			order = append(order, uid)
		}
		t.Samples = append(t.Samples, Sample{
			T: f[0],
			Pose: geom.Pose{
				Pos: geom.V(f[1], f[2], f[3]),
				Rot: geom.Quat{W: f[4], X: f[5], Y: f[6], Z: f[7]},
			},
		})
	}
	s := &Study{}
	for _, uid := range order {
		t := byUser[uid]
		if len(t.Samples) >= 2 {
			dt := t.Samples[1].T - t.Samples[0].T
			if dt > 0 {
				t.Hz = int(1/dt + 0.5)
			}
		}
		s.Traces = append(s.Traces, t)
	}
	return s, nil
}
