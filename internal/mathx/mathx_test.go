package mathx

import "testing"

func TestLessGreaterOrApprox(t *testing.T) {
	if !LessOrApprox(1.01, 1.0, 0.02) {
		t.Error("1.01 should be ≤(0.02) 1.0")
	}
	if LessOrApprox(1.05, 1.0, 0.02) {
		t.Error("1.05 should not be ≤(0.02) 1.0")
	}
	if !GreaterOrApprox(0.99, 1.0, 0.02) {
		t.Error("0.99 should be ≥(0.02) 1.0")
	}
	if GreaterOrApprox(0.95, 1.0, 0.02) {
		t.Error("0.95 should not be ≥(0.02) 1.0")
	}
}

func TestSumFloat(t *testing.T) {
	if got := SumFloat([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("SumFloat = %v, want 6.5", got)
	}
	if got := SumFloat(nil); got != 0 {
		t.Errorf("SumFloat(nil) = %v, want 0", got)
	}
}
