package main

import "testing"

func TestRunSelectedQuick(t *testing.T) {
	if code := run([]string{"-quick", "-runs", "60", "-sup", "40", "-exp", "E01"}); code != 0 {
		t.Errorf("exit code %d", code)
	}
}

func TestRunUnknownExperimentSelectsNothing(t *testing.T) {
	// An unknown ID simply selects no experiments; everything vacuously
	// passes.
	if code := run([]string{"-quick", "-exp", "E99"}); code != 0 {
		t.Errorf("exit code %d", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
}

func TestRunSeedOverride(t *testing.T) {
	if code := run([]string{"-quick", "-seed", "7", "-runs", "60", "-sup", "40", "-exp", "E04"}); code != 0 {
		t.Errorf("exit code %d", code)
	}
}

// TestParseArgsExplicitZeroes pins the fs.Visit fix: explicitly passing
// -seed 0 (or -runs/-sup/-parallel 0) must be honored, not treated as
// "flag absent" and silently replaced by the default configuration.
func TestParseArgsExplicitZeroes(t *testing.T) {
	opts, err := parseArgs([]string{"-seed", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.Seed != 0 {
		t.Errorf("explicit -seed 0 gave cfg.Seed = %d, want 0", opts.cfg.Seed)
	}
	// Unset flags keep the defaults.
	def := parseOrDie(t, nil)
	if opts.cfg.Runs != def.cfg.Runs || opts.cfg.SupRuns != def.cfg.SupRuns {
		t.Errorf("unset -runs/-sup should keep defaults: %+v vs %+v", opts.cfg, def.cfg)
	}
	if def.cfg.Seed == 0 {
		t.Fatal("default seed must be nonzero for this test to mean anything")
	}
	// -runs 0 and -sup 0 pass through too (they will surface ErrNoRuns,
	// which is the honored behaviour — not a silent fallback).
	opts, err = parseArgs([]string{"-runs", "0", "-sup", "0", "-parallel", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.Runs != 0 || opts.cfg.SupRuns != 0 || opts.cfg.Parallelism != 0 {
		t.Errorf("explicit zero overrides not honored: %+v", opts.cfg)
	}
}

func parseOrDie(t *testing.T, args []string) options {
	t.Helper()
	opts, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestParseArgsParallel checks the -parallel plumbing.
func TestParseArgsParallel(t *testing.T) {
	opts := parseOrDie(t, []string{"-quick", "-parallel", "3"})
	if opts.cfg.Parallelism != 3 {
		t.Errorf("cfg.Parallelism = %d, want 3", opts.cfg.Parallelism)
	}
	// Without the flag, -quick keeps its fixed pool size.
	opts = parseOrDie(t, []string{"-quick"})
	if opts.cfg.Parallelism != 4 {
		t.Errorf("quick default Parallelism = %d, want 4", opts.cfg.Parallelism)
	}
}

// TestRunSeedZero runs an experiment end-to-end at the previously
// unselectable seed 0.
func TestRunSeedZero(t *testing.T) {
	if code := run([]string{"-quick", "-seed", "0", "-runs", "60", "-sup", "40", "-exp", "E04"}); code != 0 {
		t.Errorf("exit code %d", code)
	}
}

func TestRunMarkdownFormat(t *testing.T) {
	if code := run([]string{"-quick", "-runs", "60", "-sup", "40", "-exp", "E04", "-format", "markdown"}); code != 0 {
		t.Errorf("exit code %d", code)
	}
}

// TestRunZeroRunsRefused: -runs 0 and -sup 0 are refused (exit 1)
// before any experiment runs or any output is printed.
func TestRunZeroRunsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-runs", "0", "-exp", "E01"},
		{"-quick", "-sup", "0", "-exp", "E01"},
	} {
		var code int
		out := captureStdout(t, func() { code = run(args) })
		if code != 1 || len(out) != 0 {
			t.Errorf("%v: exit code %d, output %q; want 1 and no output", args, code, out)
		}
	}
}
