package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestRunSmallGrid(t *testing.T) {
	if code := run([]string{"-families", "2sfe,oneround", "-n", "2",
		"-runs", "120", "-no-abort-sweep", "-quiet"}); code != 0 {
		t.Errorf("exit code %d", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
}

func TestRunUnknownFamily(t *testing.T) {
	if code := run([]string{"-families", "nope"}); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}

func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "cp.jsonl")
	args := []string{"-families", "gk", "-p", "2", "-runs", "100",
		"-checkpoint", cp, "-quiet"}
	if code := run(args); code != 0 {
		t.Fatalf("first run: exit code %d", code)
	}
	before, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if code := run(args); code != 0 {
		t.Fatalf("resume: exit code %d", code)
	}
	after, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("no-op resume modified the checkpoint")
	}
}

func TestParseSpecExplicitZeroes(t *testing.T) {
	// -seed 0 and -runs 0 (adaptive) must be honored, not replaced by
	// the defaults (fs.Visit idiom, as in cmd/fairness).
	spec, _, _, _, err := parseSpec([]string{"-seed", "0", "-runs", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 0 {
		t.Errorf("explicit -seed 0 gave Seed = %d", spec.Seed)
	}
	if spec.Runs != 0 {
		t.Errorf("explicit -runs 0 gave Runs = %d", spec.Runs)
	}
	def, _, _, _, err := parseSpec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.Seed == 0 {
		t.Fatal("default seed must be nonzero for this test to mean anything")
	}
}

func TestParseGammas(t *testing.T) {
	gs, err := parseGammas("0,0,1,0.5; 0,0,1,0")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || gs[0] != core.StandardPayoff() || gs[1] != core.GordonKatzPayoff() {
		t.Errorf("parseGammas = %+v", gs)
	}
	if _, err := parseGammas("1,2,3"); err == nil {
		t.Error("3-component vector accepted")
	}
	if _, err := parseGammas("a,b,c,d"); err == nil {
		t.Error("non-numeric vector accepted")
	}
}
