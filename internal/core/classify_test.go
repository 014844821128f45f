package core

import (
	"testing"

	"repro/internal/sim"
)

func mkTrace(n, t int, learned, delivered bool) *sim.Trace {
	tr := &sim.Trace{
		Inputs:         make([]sim.Value, n),
		ExpectedOutput: uint64(7),
		Corrupted:      make([]bool, n),
		HonestOutputs:  make([]sim.OutputRecord, n),
	}
	for i := 0; i < t; i++ {
		tr.Corrupted[i] = true
	}
	for i := t; i < n; i++ {
		if delivered {
			tr.HonestOutputs[i] = sim.OutputRecord{Value: uint64(7), OK: true}
		} else {
			tr.HonestOutputs[i] = sim.OutputRecord{OK: false}
		}
	}
	if learned {
		tr.AdvLearned = true
		tr.AdvValue = uint64(7)
	}
	return tr
}

func TestClassifyMatrix(t *testing.T) {
	tests := []struct {
		name               string
		n, t               int
		learned, delivered bool
		want               Event
	}{
		{"no corruption delivered", 2, 0, false, true, E01},
		{"no corruption undelivered", 2, 0, false, false, E00},
		{"all corrupted", 2, 2, true, true, E11},
		{"all corrupted not learned", 3, 3, false, false, E11},
		{"learned delivered", 2, 1, true, true, E11},
		{"learned undelivered", 2, 1, true, false, E10},
		{"unlearned delivered", 2, 1, false, true, E01},
		{"unlearned undelivered", 2, 1, false, false, E00},
		{"multi learned undelivered", 5, 3, true, false, E10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			oc := Classify(mkTrace(tt.n, tt.t, tt.learned, tt.delivered))
			if oc.Event != tt.want {
				t.Errorf("event = %v, want %v", oc.Event, tt.want)
			}
			if oc.Corrupted != tt.t {
				t.Errorf("corrupted = %d, want %d", oc.Corrupted, tt.t)
			}
		})
	}
}

func TestClassifyPartialDeliveryIsNotDelivery(t *testing.T) {
	// 3 parties, 1 corrupted, one honest delivered and one aborted:
	// counts as not-delivered (F⊥ aborts set everyone to ⊥).
	tr := mkTrace(3, 1, true, true)
	tr.HonestOutputs[2] = sim.OutputRecord{OK: false}
	if oc := Classify(tr); oc.Event != E10 {
		t.Errorf("partial delivery event = %v, want E10", oc.Event)
	}
}

func TestClassifyCorrectnessViolation(t *testing.T) {
	tr := mkTrace(2, 1, false, true)
	tr.HonestOutputs[1] = sim.OutputRecord{Value: uint64(999), OK: true}
	oc := Classify(tr)
	if !oc.CorrectnessViolation {
		t.Error("wrong honest output not flagged")
	}
	// A wrong output is not delivery: event must not be E01.
	if oc.Event == E01 {
		t.Error("wrong output classified as delivered")
	}
}

func TestClassifyPrivacyBreach(t *testing.T) {
	tr := mkTrace(2, 1, false, true)
	tr.PrivacyBreach = true
	if oc := Classify(tr); !oc.PrivacyBreach {
		t.Error("privacy breach not propagated")
	}
}
