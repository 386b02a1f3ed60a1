package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestStageBudgetDefaultsSumToDeadline(t *testing.T) {
	tr := New(64)
	var sum time.Duration
	for s := Stage(0); s < numStages; s++ {
		b := tr.StageBudget(s)
		if b <= 0 {
			t.Errorf("stage %v has no budget", s)
		}
		sum += b
	}
	// The percentage table sums to 100, so the derived budgets must sum to
	// the deadline (modulo per-stage truncation).
	if diff := DefaultDeadline - sum; diff < 0 || diff > time.Duration(numStages) {
		t.Errorf("budgets sum to %v, deadline %v", sum, DefaultDeadline)
	}
}

func TestStageBudgetOverrideAndNilSafety(t *testing.T) {
	tr := New(64)
	var nilTr *Tracer
	if got := nilTr.StageBudget(StageSend); got != tr.StageBudget(StageSend) {
		t.Errorf("nil StageBudget(send) = %v, want %v", got, tr.StageBudget(StageSend))
	}
	if got := tr.StageBudget(numStages); got != 0 {
		t.Errorf("out-of-range StageBudget = %v", got)
	}
}

func TestAnalyzeReportsBudgetViolations(t *testing.T) {
	tr := New(64)
	base := tr.Epoch()
	// Send blows its 3.3 ms share of the 33 ms deadline without missing
	// the frame deadline itself.
	tr.Record(1, 0, StageSend, base, 10*time.Millisecond)
	tr.Record(1, 0, StageEncode, base, time.Millisecond)
	reports := tr.Analyze()
	if len(reports) != 1 {
		t.Fatalf("got %d reports", len(reports))
	}
	r := reports[0]
	if r.Missed {
		t.Errorf("frame under deadline reported as missed")
	}
	over, ok := r.OverBudget["send"]
	if !ok {
		t.Fatalf("send over budget not reported: %+v", r.OverBudget)
	}
	wantOver := 10 - float64(tr.StageBudget(StageSend))/float64(time.Millisecond)
	if over < wantOver-0.01 || over > wantOver+0.01 {
		t.Errorf("send overrun %.3f ms, want %.3f", over, wantOver)
	}
	if _, ok := r.OverBudget["encode"]; ok {
		t.Errorf("encode within budget reported as violation")
	}
}

func TestPerfettoCarriesBudgets(t *testing.T) {
	tr := New(64)
	tr.Record(1, 0, StageSend, tr.Epoch(), 20*time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		StageBudgetsMS   map[string]float64 `json:"stageBudgetsMs"`
		BudgetViolations []FrameReport      `json:"budgetViolations"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.StageBudgetsMS) != int(numStages) {
		t.Errorf("stageBudgetsMs has %d entries, want %d", len(f.StageBudgetsMS), numStages)
	}
	if len(f.BudgetViolations) != 1 {
		t.Fatalf("budgetViolations = %d, want 1", len(f.BudgetViolations))
	}
	if _, ok := f.BudgetViolations[0].OverBudget["send"]; !ok {
		t.Errorf("violation missing send overrun: %+v", f.BudgetViolations[0])
	}
}
