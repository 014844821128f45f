// Command fairsweep runs the bound-certifying parameter sweep: a
// deterministic grid over (protocol family, payoff vector γ, party
// count n, corruption threshold t, attacker — including an abort-round
// sweep — and cost function), certifying every cell against the paper's
// applicable closed-form bound. Any breach fails the sweep with exit
// code 1.
//
// Usage:
//
//	fairsweep [-checkpoint F] [-families LIST] [-n LIST] [-t LIST] [-p LIST]
//	          [-runs N | -target-hw W -delta D] [-sup N] [-slack S]
//	          [-seed S] [-parallel P] [-no-abort-sweep] [-quiet] [-v]
//
// With -checkpoint, every record is streamed to a JSONL file as it is
// produced; re-running the same command against an existing checkpoint
// resumes after the last complete record and produces byte-identical
// output to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// parseInts parses a comma-separated integer list ("2,3,5").
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseGammas parses a semicolon-separated list of payoff vectors, each
// four comma-separated components γ00,γ01,γ10,γ11.
func parseGammas(s string) ([]core.Payoff, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []core.Payoff
	for _, vec := range strings.Split(s, ";") {
		parts := strings.Split(vec, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad payoff vector %q: want γ00,γ01,γ10,γ11", vec)
		}
		var g [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("bad payoff vector %q: %w", vec, err)
			}
			g[i] = v
		}
		out = append(out, core.Payoff{G00: g[0], G01: g[1], G10: g[2], G11: g[3]})
	}
	return out, nil
}

// parseSpec builds the sweep spec from the command line. Overrides apply
// only when their flag was explicitly given (fs.Visit), so explicit
// zeros — notably -seed 0 and -runs 0 (adaptive) — are honored.
func parseSpec(args []string) (spec sweep.Spec, checkpoint string, quiet, verbose bool, err error) {
	fs := flag.NewFlagSet("fairsweep", flag.ContinueOnError)
	families := fs.String("families", "", "comma-separated protocol families (default: all)")
	gammas := fs.String("gammas", "", "semicolon-separated payoff vectors γ00,γ01,γ10,γ11 (default: standard grid)")
	ns := fs.String("n", "", "comma-separated party counts (default: 2,3,4,5)")
	ts := fs.String("t", "", "comma-separated corruption thresholds (default: all 1..n-1)")
	ps := fs.String("p", "", "comma-separated Gordon–Katz p values (default: 2,4,8)")
	costs := fs.String("costs", "", "comma-separated cost functions: zero,optimal (default: both)")
	est := cliflags.RegisterEstimation(fs, cliflags.EstimationSpec{
		RunsUsage:     "flat Monte-Carlo runs per cell (0 = adaptive via stats.SamplesFor)",
		Sup:           true,
		SupUsage:      "per-strategy runs for sup-search cells (0 = no sup cells)",
		SeedUsage:     "sweep seed",
		Parallel:      true,
		ParallelUsage: "per-cell estimation workers (0 = one per CPU)",
	})
	targetHW := fs.Float64("target-hw", 0, "adaptive-sampling target certification margin")
	delta := fs.Float64("delta", 0, "sweep-wide false-breach probability budget")
	maxRuns := fs.Int("max-runs", 0, "adaptive run-count ceiling")
	slack := fs.Float64("slack", 0, "flat extra certification tolerance")
	supSearch := fs.Bool("sup-search", false, "compute sup cells with the racing search engine (keyed \"sup-search\")")
	vr := cliflags.RegisterVariance(fs)
	noCompiled := fs.Bool("no-compiled-plans", false, "pin the estimator to the interpreter (debugging; records are identical)")
	noAbort := fs.Bool("no-abort-sweep", false, "disable the abort-at-round attacker dimension")
	cp := fs.String("checkpoint", "", "JSONL checkpoint path (resumes if the file exists)")
	q := fs.Bool("quiet", false, "suppress per-record progress")
	v := fs.Bool("v", false, "print every record, not just breaches")
	if err := fs.Parse(args); err != nil {
		return sweep.Spec{}, "", false, false, err
	}

	spec = sweep.DefaultSpec()
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })

	if given["families"] {
		spec.Families = splitList(*families)
	}
	if given["gammas"] {
		if spec.Gammas, err = parseGammas(*gammas); err != nil {
			return sweep.Spec{}, "", false, false, err
		}
	}
	if given["n"] {
		if spec.Ns, err = parseInts(*ns); err != nil {
			return sweep.Spec{}, "", false, false, err
		}
	}
	if given["t"] {
		if spec.Ts, err = parseInts(*ts); err != nil {
			return sweep.Spec{}, "", false, false, err
		}
	}
	if given["p"] {
		if spec.Ps, err = parseInts(*ps); err != nil {
			return sweep.Spec{}, "", false, false, err
		}
	}
	if given["costs"] {
		spec.Costs = splitList(*costs)
	}
	if est.Given("runs") {
		spec.Runs = est.Runs
	}
	if given["target-hw"] {
		spec.TargetHW = *targetHW
	}
	if given["delta"] {
		spec.Delta = *delta
	}
	if given["max-runs"] {
		spec.MaxRuns = *maxRuns
	}
	if est.Given("sup") {
		spec.SupRuns = est.Sup
	}
	if *supSearch {
		spec.SupSearch = true
	}
	if given["slack"] {
		spec.Slack = *slack
	}
	if est.Given("seed") {
		spec.Seed = est.Seed
	}
	if est.Given("parallel") {
		spec.Parallelism = est.Parallel
	}
	if *noCompiled {
		spec.NoCompiledPlans = true
	}
	if *noAbort {
		spec.AbortSweep = false
	}
	if vr.PairedSeeds {
		spec.PairedSeeds = true
	}
	if vr.ControlVariates {
		spec.ControlVariates = true
	}
	return spec, *cp, *q, *v, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(args []string) int {
	spec, checkpoint, quiet, verbose, err := parseSpec(args)
	if err != nil {
		return 2
	}

	mode := fmt.Sprintf("runs=%d", spec.Runs)
	if spec.Runs == 0 {
		mode = fmt.Sprintf("adaptive target-hw=%g delta=%g", spec.TargetHW, spec.Delta)
	}
	fmt.Printf("fairsweep: families=%v n=%v %s seed=%d\n",
		spec.Families, spec.Ns, mode, spec.Seed)
	if checkpoint != "" {
		fmt.Printf("fairsweep: checkpoint %s\n", checkpoint)
	}

	progress := func(done, total int, rec sweep.Record, resumed bool) {
		if quiet {
			return
		}
		if !rec.OK || verbose {
			printRecord(done, total, rec, resumed)
		}
	}
	pool := service.New(service.Config{Workers: 1, CacheSize: -1})
	defer pool.Close()
	job, err := pool.Submit(service.SweepParams{Spec: spec},
		service.WithCheckpoint(checkpoint), service.WithProgress(progress))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairsweep:", err)
		return 1
	}
	res, err := job.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairsweep:", err)
		return 1
	}
	return printSummary(res.Sweep)
}

// printSummary renders the certified summary's verdict and returns the
// process exit code.
func printSummary(sum *sweep.Summary) int {
	for _, msg := range sum.Skipped {
		fmt.Printf("skipped: %s\n", msg)
	}
	if sum.Resumed > 0 {
		fmt.Printf("resumed: %d of %d records from checkpoint\n", sum.Resumed, len(sum.Records))
	}
	fmt.Printf("records: %d  checks: %d  breaches: %d\n",
		len(sum.Records), sum.TotalChecks, len(sum.Breaches))
	if !sum.OK() {
		for _, br := range sum.Breaches {
			printRecord(0, 0, br, false)
		}
		fmt.Println("RESULT: BOUND BREACH")
		return 1
	}
	fmt.Println("RESULT: all cells certified against the paper's bounds")
	return 0
}

// printRecord renders one record's certifications on a single line.
func printRecord(done, total int, rec sweep.Record, resumed bool) {
	var b strings.Builder
	if total > 0 {
		fmt.Fprintf(&b, "[%d/%d] ", done, total)
	}
	fmt.Fprintf(&b, "%s %s γ=(%g,%g,%g,%g) n=%d", rec.Kind, rec.Family,
		rec.Gamma[0], rec.Gamma[1], rec.Gamma[2], rec.Gamma[3], rec.N)
	if rec.Kind == "cell" {
		fmt.Fprintf(&b, " t=%d adv=%s cost=%s", rec.T, rec.Adv, rec.Cost)
		if rec.P > 0 {
			fmt.Fprintf(&b, " p=%d", rec.P)
		}
	}
	fmt.Fprintf(&b, " mean=%.4f±%.4f", rec.Mean, rec.HalfWidth)
	for _, ck := range rec.Checks {
		status := "ok"
		if !ck.OK {
			status = "BREACH"
		}
		fmt.Fprintf(&b, "  %s %s %.4f [%s]", ck.Name, ck.Dir, ck.Bound, status)
	}
	if resumed {
		b.WriteString("  (resumed)")
	}
	fmt.Println(b.String())
}
