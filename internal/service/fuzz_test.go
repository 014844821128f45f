package service

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// FuzzValidateParams decodes arbitrary bytes as the JSON parameters of
// every cacheable job kind — EstimateParams, SupParams, SearchParams and
// SweepParams, the bodies fairnessd accepts — and validates them.
// Validate must never panic, and every parameter set it accepts must
// name only protocols within core.MaxRounds message rounds: the bound
// that keeps a short request body from building a huge strategy space
// or simulation. The seed corpus in testdata/fuzz/FuzzValidateParams
// includes the 29-byte gk-polyrange:2000 search body.
func FuzzValidateParams(f *testing.F) {
	for _, body := range []string{
		`{"proto":"2sfe-opt","adv":"agen","runs":1000,"seed":7}`,
		`{"proto":"pi2","advs":["lock-abort:1","abort:3:2"],"runs":100,"seed":1}`,
		`{"proto":"gk-polydomain:8","space":"raw","seed":3}`,
		`{"spec":{"Families":["gk","optn"],"Gammas":[{"G00":0,"G01":0,"G10":1,"G11":0.5}],"Ns":[2,3],"Ps":[2,4]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var est EstimateParams
		if json.Unmarshal(data, &est) == nil && est.Validate() == nil {
			checkBounded(t, est.Proto)
		}
		var sup SupParams
		if json.Unmarshal(data, &sup) == nil && sup.Validate() == nil {
			checkBounded(t, sup.Proto)
		}
		var search SearchParams
		if json.Unmarshal(data, &search) == nil && search.Validate() == nil {
			checkBounded(t, search.Proto)
		}
		var sw SweepParams
		if json.Unmarshal(data, &sw) == nil && sw.Validate() == nil {
			plan, err := sweep.Plan(sw.Spec)
			if err != nil {
				t.Fatalf("Validate accepted a spec Plan rejects: %v", err)
			}
			for _, c := range plan.Cells {
				checkBounded(t, sweepProtoName(c))
			}
		}
	})
}

// checkBounded fails unless the registry builds name within
// core.MaxRounds message rounds.
func checkBounded(t *testing.T, name string) {
	t.Helper()
	p, _, err := BuildProtocol(name)
	if err != nil {
		t.Fatalf("accepted parameters name protocol %q, which does not build: %v", name, err)
	}
	if r := p.NumRounds(); r > core.MaxRounds {
		t.Fatalf("accepted protocol %q has %d message rounds, above the bound of %d", name, r, core.MaxRounds)
	}
}

// sweepProtoName maps a sweep cell to the registry protocol its family
// instantiates.
func sweepProtoName(c sweep.Cell) string {
	switch c.Family {
	case "2sfe":
		return "2sfe-opt"
	case "oneround":
		return "2sfe-oneround"
	case "optn":
		return fmt.Sprintf("nsfe-opt:%d", c.N)
	case "gmwhalf":
		return fmt.Sprintf("nsfe-gmw12:%d", c.N)
	case "gk":
		return fmt.Sprintf("gk-polydomain:%d", c.P)
	}
	return c.Family // pi1, pi2
}
