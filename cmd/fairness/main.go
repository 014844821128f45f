// Command fairness runs the paper-reproduction experiments (E01..E15)
// and prints one paper-vs-measured table per theorem/lemma.
//
// Usage:
//
//	fairness [-quick] [-runs N] [-sup N] [-seed S] [-parallel P] [-exp E05[,E07]] [-trace F]
//
// The default configuration matches EXPERIMENTS.md; -quick runs a fast
// smoke sweep. -parallel sets the estimation worker count (0, the
// default, means one worker per CPU; 1 forces sequential execution);
// results are identical for every setting. -trace writes a JSONL
// transcript of every simulated run to F (pretty-print it with
// `fairsim -print-trace F`); expect large files outside -quick/-exp.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sim/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options is the parsed command line.
type options struct {
	cfg       experiments.Config
	selected  map[string]bool
	format    string
	traceFile string
}

// parseArgs builds the experiment configuration. Overrides apply only
// when their flag was explicitly given (detected via fs.Visit), so
// explicit zero values — in particular -seed 0 — are honored instead of
// silently falling back to the defaults.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("fairness", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use the fast smoke-test configuration")
	est := cliflags.RegisterEstimation(fs, cliflags.EstimationSpec{
		RunsUsage: "override Monte-Carlo runs per measurement",
		Sup:       true,
		SupUsage:  "override per-strategy runs in sup searches",
		SeedUsage: "override the experiment seed",
		Parallel:  true,
		Trace:     true,
	})
	only := fs.String("exp", "", "comma-separated experiment IDs (default: all)")
	format := fs.String("format", "text", "output format: text or markdown")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if est.Given("runs") {
		cfg.Runs = est.Runs
	}
	if est.Given("sup") {
		cfg.SupRuns = est.Sup
	}
	if est.Given("seed") {
		cfg.Seed = est.Seed
	}
	if est.Given("parallel") {
		cfg.Parallelism = est.Parallel
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			selected[id] = true
		}
	}
	return options{cfg: cfg, selected: selected, format: *format, traceFile: est.Trace}, nil
}

func run(args []string) int {
	opts, err := parseArgs(args)
	if err != nil {
		return 2
	}
	cfg := opts.cfg
	if cfg.Runs <= 0 || cfg.SupRuns <= 0 {
		fmt.Fprintln(os.Stderr, "fairness:", core.ErrNoRuns)
		return 1
	}
	if opts.traceFile != "" {
		f, err := os.Create(opts.traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fairness:", err)
			return 1
		}
		defer func() { _ = f.Close() }()
		cfg.Trace = trace.NewSink(f)
	}

	fmt.Printf("utility-based fairness reproduction (runs=%d sup=%d seed=%d γ=%+v)\n\n",
		cfg.Runs, cfg.SupRuns, cfg.Seed, cfg.Gamma)

	allPass := true
	var m sim.Metrics
	for _, e := range experiments.All() {
		if len(opts.selected) > 0 && !opts.selected[e.ID] {
			continue
		}
		res, err := e.Measure(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		m.Add(res.Metrics)
		if opts.format == "markdown" {
			printMarkdown(res)
		} else {
			printResult(res)
		}
		if !res.Pass() {
			allPass = false
		}
	}
	fmt.Printf("engine: runs=%d rounds=%d msgs=%d broadcasts=%d corruptions=%d setup-aborts=%d\n",
		m.Runs, m.Rounds, m.Messages, m.Broadcasts, m.Corruptions, m.SetupAborts)
	if cfg.Trace != nil {
		if err := cfg.Trace.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "fairness: trace:", err)
			return 1
		}
		st := cfg.Trace.Stats()
		fmt.Printf("trace : %s (%d lines, %d runs)\n", opts.traceFile, st.Lines, st.Runs)
	}
	if !allPass {
		fmt.Println("RESULT: some rows FAILED")
		return 1
	}
	fmt.Println("RESULT: all experiments consistent with the paper")
	return 0
}

func printResult(res experiments.Result) {
	fmt.Printf("%s — %s\n", res.ID, res.Title)
	fmt.Printf("    claim: %s\n", res.Claim)
	fmt.Printf("    %-46s %10s %2s %10s %8s  %s\n", "quantity", "paper", "", "measured", "status", "note")
	for _, row := range res.Rows {
		status := "ok"
		if !row.Pass {
			status = "FAIL"
		}
		ci := ""
		if row.CI > 0 {
			ci = fmt.Sprintf("±%.3f", row.CI)
		}
		fmt.Printf("    %-46s %10.4f %2s %10.4f %8s  %s %s\n",
			row.Label, row.Paper, row.Dir, row.Measured, status, ci, row.Note)
	}
	if m := res.Metrics; m.Runs > 0 {
		fmt.Printf("    engine: runs=%d rounds=%d msgs=%d corruptions=%d setup-aborts=%d\n",
			m.Runs, m.Rounds, m.Messages, m.Corruptions, m.SetupAborts)
	}
	fmt.Println()
}

// printMarkdown renders one experiment as a GitHub-flavored table, the
// format used by EXPERIMENTS.md.
func printMarkdown(res experiments.Result) {
	fmt.Printf("## %s — %s\n\n", res.ID, res.Title)
	fmt.Printf("*%s*\n\n", res.Claim)
	fmt.Println("| quantity | paper | | measured | status |")
	fmt.Println("|---|---:|:-:|---:|:-:|")
	for _, row := range res.Rows {
		status := "ok"
		if !row.Pass {
			status = "**FAIL**"
		}
		measured := fmt.Sprintf("%.4f", row.Measured)
		if row.CI > 0 {
			measured += fmt.Sprintf(" ± %.3f", row.CI)
		}
		dir := row.Dir
		if dir == "<=" {
			dir = "≤"
		} else if dir == ">=" {
			dir = "≥"
		}
		fmt.Printf("| %s | %.4f | %s | %s | %s |\n", row.Label, row.Paper, dir, measured, status)
	}
	fmt.Println()
}
