package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim/trace"
)

func TestRowBuilders(t *testing.T) {
	r := eqRow("x", 1.0, 1.02, 0.01, 0.02)
	if !r.Pass {
		t.Error("1.02 vs 1.0 with tol 0.02 + ci 0.01 should pass")
	}
	r = eqRow("x", 1.0, 1.2, 0.01, 0.02)
	if r.Pass {
		t.Error("1.2 vs 1.0 should fail")
	}
	r = leRow("x", 0.5, 0.52, 0.01, 0.02)
	if !r.Pass {
		t.Error("0.52 ≤ 0.5 within slack should pass")
	}
	r = leRow("x", 0.5, 0.6, 0.01, 0.02)
	if r.Pass {
		t.Error("0.6 ≤ 0.5 should fail")
	}
	r = geRow("x", 0.5, 0.48, 0.01, 0.02)
	if !r.Pass {
		t.Error("0.48 ≥ 0.5 within slack should pass")
	}
	r = geRow("x", 0.5, 0.3, 0.01, 0.02)
	if r.Pass {
		t.Error("0.3 ≥ 0.5 should fail")
	}
	if !boolRow("x", true, true).Pass || boolRow("x", true, false).Pass {
		t.Error("boolRow semantics")
	}
}

func TestResultPass(t *testing.T) {
	r := Result{Rows: []Row{{Pass: true}, {Pass: true}}}
	if !r.Pass() {
		t.Error("all-pass result")
	}
	r.Rows = append(r.Rows, Row{Pass: false})
	if r.Pass() {
		t.Error("one failing row")
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	q := QuickConfig()
	if q.Runs >= d.Runs {
		t.Error("quick config should be cheaper")
	}
	if err := d.Gamma.ValidateFairPlus(); err != nil {
		t.Errorf("default gamma not Γ+fair: %v", err)
	}
}

func TestAllComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.Run == nil {
			t.Errorf("%s has no runner", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if len(ids) != 15 {
		t.Errorf("expected 15 experiments, got %d", len(ids))
	}
}

// TestExperimentsPassQuick runs every experiment at quick settings and
// requires every row to pass — the end-to-end reproduction check.
func TestExperimentsPassQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	cfg := QuickConfig()
	results, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		for _, row := range res.Rows {
			if !row.Pass {
				t.Errorf("%s %q: paper %s %v, measured %v ± %v (%s)",
					res.ID, row.Label, row.Dir, row.Paper, row.Measured, row.CI, row.Note)
			}
			if math.IsNaN(row.Measured) {
				t.Errorf("%s %q: NaN measurement", res.ID, row.Label)
			}
		}
	}
}

// TestParallelMatchesSequential pins the determinism contract at the
// experiment level: the same Config run sequentially and with a worker
// pool must produce byte-identical Results.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	for _, id := range []string{"E04", "E05", "E08"} {
		var exp *Experiment
		for _, e := range All() {
			if e.ID == id {
				cp := e
				exp = &cp
				break
			}
		}
		if exp == nil {
			t.Fatalf("experiment %s not registered", id)
		}
		seqCfg := QuickConfig()
		seqCfg.Parallelism = 1
		parCfg := QuickConfig()
		parCfg.Parallelism = 4
		seq, err := exp.Run(seqCfg)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		par, err := exp.Run(parCfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: parallel result differs from sequential:\nseq: %+v\npar: %+v", id, seq, par)
		}
	}
}

// TestRunAllParallelMatchesSequential checks the experiment-level
// fan-out too: RunAll at Parallelism 1 and 4 must agree on every row.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	seqCfg := QuickConfig()
	seqCfg.Parallelism = 1
	seqCfg.Runs, seqCfg.SupRuns = 80, 40
	parCfg := seqCfg
	parCfg.Parallelism = 4
	seq, err := RunAll(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("RunAll results differ between Parallelism 1 and 4")
	}
}

// TestMetricsAndTracePlumbing checks that Measure's metrics and a
// config-level transcript sink see every run an experiment makes, and
// that the two agree with each other.
func TestMetricsAndTracePlumbing(t *testing.T) {
	var exp *Experiment
	for _, e := range All() {
		if e.ID == "E01" {
			cp := e
			exp = &cp
			break
		}
	}
	if exp == nil {
		t.Fatal("E01 not registered")
	}
	cfg := QuickConfig()
	cfg.Runs, cfg.SupRuns = 40, 20
	var buf bytes.Buffer
	cfg.Trace = trace.NewSink(&buf)
	res, err := exp.Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Err(); err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Runs == 0 || m.Rounds == 0 || m.Messages == 0 {
		t.Fatalf("Measure missed the experiment's runs: %+v", m)
	}
	st := cfg.Trace.Stats()
	if st.Runs != m.Runs || st.Rounds != m.Rounds || st.Sends != m.Messages || st.Deliveries != m.Deliveries {
		t.Errorf("transcript stats %+v disagree with metrics %+v", st, m)
	}
	if _, err := trace.Parse(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("transcript not parseable: %v", err)
	}
}

// TestRunAllFillsResultMetrics checks RunAll's per-experiment metrics.
func TestRunAllFillsResultMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	cfg := QuickConfig()
	cfg.Runs, cfg.SupRuns = 40, 20
	results, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Metrics.Runs == 0 {
			t.Errorf("%s: Result.Metrics empty", res.ID)
		}
	}
}
