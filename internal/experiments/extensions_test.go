package experiments

import (
	"strings"
	"testing"
)

func TestPredEval(t *testing.T) {
	rows, err := PredEval(300, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 4 predictors × 3 horizons
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]PredEvalRow{}
	for _, r := range rows {
		byKey[r.Predictor+"@"+formatH(r.HorizonS)] = r
		if r.PosErrM < 0 || r.AngErrDeg < 0 {
			t.Fatalf("negative error: %+v", r)
		}
	}
	// Errors grow with horizon for every model.
	for _, m := range []string{"static", "linear", "kalman", "mlp"} {
		if byKey[m+"@0.50"].PosErrM < byKey[m+"@0.10"].PosErrM {
			t.Errorf("%s: error shrank with horizon", m)
		}
	}
	// Linear beats static at the streaming horizon (0.25 s).
	if byKey["linear@0.25"].PosErrM > byKey["static@0.25"].PosErrM {
		t.Errorf("linear (%.3f) worse than static (%.3f) at 0.25s",
			byKey["linear@0.25"].PosErrM, byKey["static@0.25"].PosErrM)
	}
	if out := RenderPredEval(rows); !strings.Contains(out, "pos err") {
		t.Error("RenderPredEval malformed")
	}
}

func formatH(h float64) string {
	switch {
	case h < 0.2:
		return "0.10"
	case h < 0.4:
		return "0.25"
	default:
		return "0.50"
	}
}

func TestMultiAPScaling(t *testing.T) {
	rows, err := MultiAP(60_000, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Concurrent {
		t.Error("1 AP flagged concurrent")
	}
	// More APs must never hurt uncapped capacity (spatial reuse or, at
	// worst, serialization equal to fewer APs' airtime).
	if rows[1].FPS < rows[0].FPS*0.95 {
		t.Errorf("2 APs (%.1f) notably worse than 1 (%.1f)", rows[1].FPS, rows[0].FPS)
	}
	if out := RenderMultiAP(rows); !strings.Contains(out, "concurrent") {
		t.Error("RenderMultiAP malformed")
	}
}

func TestAblationOrdering(t *testing.T) {
	rows, err := Ablation(AblationConfig{Users: 6, Seconds: 1, Points: 120_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Config] = r
		if r.AvgFPS <= 0 || r.AvgFPS > 30 {
			t.Fatalf("%s FPS %v", r.Config, r.AvgFPS)
		}
	}
	// Each feature must not hurt: FPS is non-decreasing along the
	// stack (small tolerance for simulation noise).
	order := []string{"vanilla", "+vivo", "+multicast", "+custom-beams", "+prediction"}
	for i := 1; i < len(order); i++ {
		if byName[order[i]].AvgFPS < byName[order[i-1]].AvgFPS-0.5 {
			t.Errorf("%s (%.1f FPS) below %s (%.1f FPS)",
				order[i], byName[order[i]].AvgFPS, order[i-1], byName[order[i-1]].AvgFPS)
		}
	}
	// Multicast variants actually multicast.
	if byName["+multicast"].MulticastShare <= 0 {
		t.Error("+multicast moved no multicast bytes")
	}
	if out := RenderAblation(rows); !strings.Contains(out, "vanilla") {
		t.Error("RenderAblation malformed")
	}
}

func TestGCRSweep(t *testing.T) {
	rows := GCRSweep()
	if len(rows) != 27 { // 3 policies × 3 sizes × 3 margins
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]GCRRow{}
	for _, r := range rows {
		byKey[r.Policy+string(rune('0'+r.Members))+string(rune('0'+int(r.MarginDB)))] = r
		if r.AirtimeX < 1 {
			t.Fatalf("airtime multiplier < 1: %+v", r)
		}
		if r.ResidualLoss < 0 || r.ResidualLoss > 1 {
			t.Fatalf("loss out of range: %+v", r)
		}
	}
	// No-retry policy: airtime 1×, visible residual loss at margin 0.
	off := byKey["off"+"2"+"0"]
	if off.AirtimeX != 1 || off.ResidualLoss < 0.1 {
		t.Errorf("off policy wrong: %+v", off)
	}
	// GCR-BA at margin 0: more airtime than off, far less loss.
	ba := byKey["gcr-ba"+"2"+"0"]
	if ba.AirtimeX <= 1 || ba.ResidualLoss >= off.ResidualLoss/100 {
		t.Errorf("gcr-ba wrong: %+v", ba)
	}
	// Airtime tax shrinks with margin.
	if byKey["gcr-ba"+"2"+"5"].AirtimeX >= byKey["gcr-ba"+"2"+"0"].AirtimeX {
		t.Error("gcr-ba airtime not shrinking with margin")
	}
	// Bigger groups cost no less airtime under block-ack.
	if byKey["gcr-ba"+"4"+"0"].AirtimeX < byKey["gcr-ba"+"2"+"0"].AirtimeX {
		t.Error("gcr-ba airtime shrank with group size")
	}
	if out := RenderGCR(rows); !strings.Contains(out, "gcr-ba") {
		t.Error("RenderGCR malformed")
	}
}
