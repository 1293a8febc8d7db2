package harness

import (
	"context"
	"testing"
)

// TestRobustnessMatrix runs the full fault matrix and requires every
// class to meet its expectation: checked faults caught with diagnostics,
// absorbed faults leaving the shaped distribution on target.
func TestRobustnessMatrix(t *testing.T) {
	r, err := Robustness(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(robustnessCases()) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(robustnessCases()))
	}
	for _, row := range r.Rows {
		if row.Verdict != "PASS" {
			t.Errorf("%s: verdict %s (checker %q, dump %v, maxdev %.2f)",
				row.Fault, row.Verdict, row.Checker, row.HasDump, row.MaxAbsDev)
		}
	}
	if r.Failed() {
		t.Error("RobustnessResult.Failed() = true")
	}
}
