package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// smokeSpec is a small but family-complete grid: every family, two γ
// points, n ∈ {2, 3, 4}, both costs, abort sweep on.
func smokeSpec() Spec {
	return Spec{
		Families:   []string{"2sfe", "oneround", "pi1", "pi2", "optn", "gmwhalf", "gk"},
		Gammas:     []core.Payoff{core.StandardPayoff(), core.GordonKatzPayoff()},
		Ns:         []int{2, 3, 4},
		Ps:         []int{2, 4},
		Costs:      []string{"zero", "optimal"},
		AbortSweep: true,
		Runs:       400,
		Seed:       20150302,
	}
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no families", Spec{Gammas: StandardGammas(), Ns: []int{2}}, "no families"},
		{"no gammas", Spec{Families: []string{"2sfe"}, Ns: []int{2}}, "no payoff vectors"},
		{"unknown family", Spec{Families: []string{"nope"}, Gammas: StandardGammas(), Ns: []int{2}}, "unknown family"},
		{"bad n", Spec{Families: []string{"optn"}, Gammas: StandardGammas(), Ns: []int{1}}, "out of range"},
		{"bad p", Spec{Families: []string{"gk"}, Gammas: StandardGammas(), Ps: []int{1}}, "out of range"},
		{"p above round bound", Spec{Families: []string{"gk"}, Gammas: StandardGammas(), Ps: []int{257}}, "bound of 1024"},
		{"p far above round bound", Spec{Families: []string{"gk"}, Gammas: StandardGammas(), Ps: []int{1 << 62}}, "p out of range"},
		{"bad cost", Spec{Families: []string{"2sfe"}, Gammas: StandardGammas(), Ns: []int{2}, Costs: []string{"quadratic"}}, "unknown cost"},
		{"not fair-plus", Spec{Families: []string{"2sfe"}, Ns: []int{2},
			Gammas: []core.Payoff{{G00: 0.9, G01: 0, G10: 1, G11: 0.5}}}, "fair"},
		// A false-breach budget of 1 or more certifies nothing: at 1e300
		// δ′ passes 2 and the Hoeffding widening vanishes.
		{"delta one", Spec{Families: []string{"2sfe"}, Gammas: StandardGammas(), Ns: []int{2}, Delta: 1}, "delta"},
		{"delta huge", Spec{Families: []string{"2sfe"}, Gammas: StandardGammas(), Ns: []int{2}, Delta: 1e300}, "delta"},
	}
	for _, c := range cases {
		if _, err := Plan(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Plan() error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestPlanDeterministicAndKeyed(t *testing.T) {
	a, err := Plan(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) || a.Records() != b.Records() {
		t.Fatalf("plans differ in size: %d/%d vs %d/%d", len(a.Cells), a.Records(), len(b.Cells), b.Records())
	}
	seen := map[string]bool{}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs across identical plans:\n%+v\n%+v", i, a.Cells[i], b.Cells[i])
		}
		if seen[a.Cells[i].Key] {
			t.Fatalf("duplicate cell key %s", a.Cells[i].Key)
		}
		seen[a.Cells[i].Key] = true
		if a.Cells[i].Seed < 0 {
			t.Fatalf("cell %d: negative seed %d", i, a.Cells[i].Seed)
		}
	}
	// Two-party families must be skipped, not silently dropped, at n > 2.
	if len(a.Skipped) == 0 {
		t.Error("expected skipped (family, n) combinations for two-party families at n=3,4")
	}
	// A different sweep seed re-keys every cell.
	spec := smokeSpec()
	spec.Seed++
	c, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cells[0].Key == a.Cells[0].Key {
		t.Error("sweep seed does not enter the cell key")
	}
}

func TestAdaptiveRuns(t *testing.T) {
	spec := smokeSpec()
	spec.Runs = 0
	spec.TargetHW = 0.2
	spec.MinRuns = 50
	spec.MaxRuns = 300
	sw, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sw.Cells {
		if c.Runs < spec.MinRuns || c.Runs > spec.MaxRuns {
			t.Fatalf("cell %s: adaptive runs %d outside [%d, %d]", c.Key, c.Runs, spec.MinRuns, spec.MaxRuns)
		}
	}
	// A tighter target must not decrease any run count.
	tight := spec
	tight.TargetHW = 0.05
	tight.MaxRuns = 100000
	tw, err := Plan(tight)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tw.Cells {
		if tw.Cells[i].Runs < sw.Cells[i].Runs {
			t.Fatalf("cell %d: tighter target reduced runs %d -> %d", i, sw.Cells[i].Runs, tw.Cells[i].Runs)
		}
	}
}

// TestSweepSmokeNoBreaches is the in-repo version of the CI smoke: the
// full family grid must certify cleanly against the paper's bounds.
func TestSweepSmokeNoBreaches(t *testing.T) {
	sum, err := Run(smokeSpec(), "", nil)
	if err != nil {
		for _, br := range sum.Breaches {
			t.Errorf("breach: %s %s n=%d t=%d adv=%s cost=%s: %+v",
				br.Family, br.Kind, br.N, br.T, br.Adv, br.Cost, br.Checks)
		}
		t.Fatal(err)
	}
	if len(sum.Records) == 0 || sum.TotalChecks == 0 {
		t.Fatal("empty sweep")
	}
	// The grid must include aggregate sum records for optn (n=3,4) and
	// gmwhalf (n=4 only: even n).
	kinds := map[string]int{}
	for _, r := range sum.Records {
		if r.Kind == "sum" {
			kinds[r.Family]++
		}
	}
	if kinds["optn"] != 4 { // 2 γ × n ∈ {3, 4}; n=2 has t range {1} too — count below
		// optn sums exist for every n with a complete t-range: n=2,3,4 ⇒ 3 per γ.
		if kinds["optn"] != 6 {
			t.Errorf("optn sum records = %d, want 6", kinds["optn"])
		}
	}
	if kinds["gmwhalf"] != 4 { // even n ∈ {2, 4} × 2 γ
		t.Errorf("gmwhalf sum records = %d, want 4", kinds["gmwhalf"])
	}
}

// TestSupCells exercises the SupUtility entry point through the grid:
// with SupRuns set, the sweep emits "sup-search" cells, each naming its
// best strategy, and the sweep certifies.
func TestSupCells(t *testing.T) {
	spec := Spec{
		Families: []string{"2sfe", "gmwhalf"},
		Gammas:   []core.Payoff{core.StandardPayoff()},
		Ns:       []int{2, 4},
		Runs:     200,
		SupRuns:  120,
		Seed:     7,
	}
	sum, err := Run(spec, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	supSeen := false
	for _, r := range sum.Records {
		if r.Adv == "sup-search" {
			supSeen = true
			if !strings.HasPrefix(r.Note, "best: ") {
				t.Errorf("sup-search record %s lacks best-strategy note: %q", r.Key, r.Note)
			}
		}
	}
	if !supSeen {
		t.Fatal("no sup-search cells in grid with SupRuns set")
	}
}

// TestSupSearchCells pins the racing sup path: every (family, n, t) gets
// one "sup-search" cell whose raced winner is the best strategy
// core.SupUtilitySpace finds by enumerating the same space at the cell's
// runs and seed, and the records repeat byte for byte.
func TestSupSearchCells(t *testing.T) {
	spec := Spec{
		Families: []string{"pi1", "gmwhalf"},
		Gammas:   []core.Payoff{core.StandardPayoff()},
		Ns:       []int{2, 4},
		Runs:     200,
		SupRuns:  200,
		Seed:     7,
	}
	dir := t.TempDir()
	first, again := filepath.Join(dir, "first.jsonl"), filepath.Join(dir, "again.jsonl")
	sum, err := Run(spec, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	supCells := 0
	for i, c := range sw.Cells {
		if c.Adv != "sup-search" {
			continue
		}
		supCells++
		proto, err := buildProtocol(c.Family, c.N, c.P)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.SupUtilitySpace(proto, core.SliceSpace(buildSpace(c, proto)), c.Gamma,
			buildSampler(c.Family, c.N), c.Runs, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if note := sum.Records[i].Note; !strings.HasPrefix(note, "best: "+ref.Best+" (raced ") {
			t.Errorf("%s n=%d t=%d: note %q, want raced winner %q", c.Family, c.N, c.T, note, ref.Best)
		}
	}
	if supCells == 0 {
		t.Fatal("no sup-search cells in grid with SupRuns set")
	}

	if _, err := Run(spec, again, nil); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("sup-search records are not reproducible across runs")
	}
}

// TestResumeByteIdentical is the tentpole's determinism acceptance test:
// interrupt a sweep partway (simulated by a checkpoint holding a prefix,
// including a torn trailing line), resume it, and require the resulting
// JSONL to be byte-identical to an uninterrupted run's.
func TestResumeByteIdentical(t *testing.T) {
	spec := smokeSpec()
	spec.Families = []string{"2sfe", "optn", "gk"}
	spec.Ns = []int{2, 3}
	spec.Runs = 150
	dir := t.TempDir()

	full := filepath.Join(dir, "full.jsonl")
	if _, err := Run(spec, full, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	if len(lines) < 8 {
		t.Fatalf("sweep too small for a meaningful interrupt: %d lines", len(lines))
	}

	// Interrupt after 5 records, mid-write of the 6th: a torn tail.
	cut := filepath.Join(dir, "resume.jsonl")
	prefix := bytes.Join(lines[:6], nil) // header + 5 records
	torn := append(append([]byte{}, prefix...), lines[6][:len(lines[6])/2]...)
	if err := os.WriteFile(cut, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	sum, err := Run(spec, cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 5 {
		t.Errorf("resumed %d records, want 5", sum.Resumed)
	}
	got, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed checkpoint is not byte-identical to uninterrupted run\nwant %d bytes, got %d", len(want), len(got))
	}

	// Resuming a complete checkpoint re-measures nothing and rewrites
	// nothing.
	sum2, err := Run(spec, cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Resumed != len(sum2.Records) {
		t.Errorf("complete checkpoint: resumed %d of %d", sum2.Resumed, len(sum2.Records))
	}
	again, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Error("no-op resume modified the checkpoint")
	}
}

// TestResumeRejectsForeignCheckpoint pins the header/key validation: a
// checkpoint from a different grid or seed must refuse to resume.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	spec := Spec{
		Families: []string{"2sfe"}, Gammas: []core.Payoff{core.StandardPayoff()},
		Ns: []int{2}, Runs: 100, Seed: 1,
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.jsonl")
	if _, err := Run(spec, path, nil); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 2
	if _, err := Run(other, path, nil); err == nil || !strings.Contains(err.Error(), "header mismatch") {
		t.Errorf("foreign checkpoint accepted: err = %v", err)
	}

	// A record whose key drifts from the plan is corruption, not a tear.
	sw, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"key":"`+sw.Cells[0].Key+`"`), []byte(`"key":"0000000000000000"`), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path, sw); err == nil || !strings.Contains(err.Error(), "grid drift") {
		t.Errorf("drifted record accepted: err = %v", err)
	}
}

// gkTightSpec is the default adaptive grid restricted to the
// Gordon–Katz first-hit cells at p ∈ {4, 8}, where the exact Pr[E10]
// sits within 10⁻³ of the 1/p ceiling: the cells a Wilson check with
// too narrow an interval false-breaches on.
func gkTightSpec(seed int64) Spec {
	spec := DefaultSpec()
	spec.Families = []string{"gk"}
	spec.Gammas = []core.Payoff{core.GordonKatzPayoff(), core.StandardPayoff()}
	spec.Ps = []int{4, 8}
	spec.Costs = []string{"zero"}
	spec.AbortSweep = false
	spec.Seed = seed
	return spec
}

// TestGKWilsonSpendsUnionBudget pins two seeds whose near-tight
// Pr[E10] ≤ 1/p checks breached when the Wilson interval was a fixed
// 95% one instead of spending the sweep's per-check budget δ′.
func TestGKWilsonSpendsUnionBudget(t *testing.T) {
	for _, seed := range []int64{4, 17} {
		if _, err := Run(gkTightSpec(seed), "", nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestFalseBreachRateWithinDelta runs the near-tight Gordon–Katz grid
// at 50 fixed seeds. Every cell is a correct protocol, so each sweep
// breaches with probability at most Delta; the count over the fixed
// seeds must stay within Delta × sweeps. The seeds are fixed, so the
// test cannot flake.
func TestFalseBreachRateWithinDelta(t *testing.T) {
	const sweeps = 50
	breaches := 0
	for seed := int64(1); seed <= sweeps; seed++ {
		sum, err := Run(gkTightSpec(seed), "", nil)
		if err != nil && !errors.Is(err, ErrBreach) {
			t.Fatal(err)
		}
		if !sum.OK() {
			breaches++
			t.Logf("seed %d: %d breached record(s)", seed, len(sum.Breaches))
		}
	}
	if delta := gkTightSpec(1).Delta; float64(breaches) > delta*sweeps {
		t.Errorf("%d of %d sweeps of correct protocols breached, want at most Delta × sweeps = %g",
			breaches, sweeps, delta*sweeps)
	}
}

// TestBreachDetection plants an impossible bound via a hostile payoff
// route: certify against a deliberately wrong slack-free comparison by
// shrinking MaxRuns? Instead, the honest route — a cell whose measured
// utility provably exceeds a *tighter* bound — is synthesized by
// checking that certification fails when Slack is large and negative.
func TestBreachDetection(t *testing.T) {
	spec := Spec{
		Families: []string{"oneround"},
		Gammas:   []core.Payoff{core.StandardPayoff()},
		Ns:       []int{2},
		Runs:     200,
		Seed:     3,
		Slack:    -2, // impossible tolerance: every check must now fail
	}
	sum, err := Run(spec, "", nil)
	if err == nil || !errors.Is(err, ErrBreach) {
		t.Fatalf("expected ErrBreach, got %v", err)
	}
	if sum == nil || len(sum.Breaches) == 0 {
		t.Fatal("breach summary empty")
	}
	for _, br := range sum.Breaches {
		if br.OK {
			t.Error("breach record marked OK")
		}
	}
}

// TestRunContextCancel pins the cancellation contract: a canceled sweep
// stops between cells with a valid checkpoint, and a later Run resumes
// it to a byte-identical complete file.
func TestRunContextCancel(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "cancel.jsonl")
	refPath := filepath.Join(dir, "ref.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	stopAfter := 5
	progress := func(done, total int, rec Record, resumed bool) {
		if done == stopAfter {
			cancel()
		}
	}
	sum, err := RunContext(ctx, spec, path, progress)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: err = %v, want context.Canceled", err)
	}
	if len(sum.Records) != stopAfter {
		t.Fatalf("canceled after %d records, want %d", len(sum.Records), stopAfter)
	}

	if _, err := Run(spec, path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, refPath, nil); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(refPath)
	if !bytes.Equal(a, b) {
		t.Fatal("resumed-after-cancel checkpoint differs from uninterrupted run")
	}
}
