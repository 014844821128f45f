package cliflags

import (
	"flag"
	"testing"
)

func TestRegisterEstimationDefaultsAndGiven(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	est := RegisterEstimation(fs, EstimationSpec{Runs: 1000, Seed: 5, Sup: true, SupRuns: 40, Parallel: true, Trace: true})
	if err := fs.Parse([]string{"-seed", "0", "-trace", "out.jsonl"}); err != nil {
		t.Fatal(err)
	}
	if est.Runs != 1000 || est.Sup != 40 || est.Seed != 0 || est.Parallel != 0 || est.Trace != "out.jsonl" {
		t.Fatalf("parsed %+v", est)
	}
	// The fs.Visit idiom: an explicit zero is "given", a default is not.
	if !est.Given("seed") {
		t.Error("explicit -seed 0 not reported as given")
	}
	if est.Given("runs") || est.Given("sup") || est.Given("parallel") {
		t.Error("defaulted flags reported as given")
	}
}

func TestRegisterEstimationSelectsFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	RegisterEstimation(fs, EstimationSpec{})
	for name, want := range map[string]bool{"runs": true, "seed": true, "sup": false, "parallel": false, "trace": false} {
		if got := fs.Lookup(name) != nil; got != want {
			t.Errorf("flag -%s registered = %v, want %v", name, got, want)
		}
	}
}
