// Command fairsearch races a strategy space to the protocol's certified
// best response — the sup of Definition 1 — using successive
// elimination and branch-and-bound instead of exhaustive enumeration.
//
// Usage:
//
//	fairsearch -proto 2sfe-opt
//	fairsearch -proto gk-polydomain:4 -runs 8000 -sup 1500
//	fairsearch -proto pi2 -arms 8 -search-checkpoint search.jsonl
//
// The racing schedule admits arms in descending static-bound order
// (pruning any arm whose bound cannot beat the incumbent), races the
// survivors in geometrically growing waves with Wilson-interval
// eliminations under the -elim-delta union bound, and certifies the
// winner with a fresh -runs estimate at its arm seed. The printed
// savings compare the runs spent with what exhaustive enumeration
// (core.SupUtilitySpace) spends on the space: arms × -runs.
//
// -search-checkpoint streams every scheduling decision and measured
// wave to a JSONL file; re-running with the same flags resumes it and
// converges to a byte-identical checkpoint.
//
// Protocols and spaces come from the shared registry: see fairsim -h
// for protocol names; -space raw (default) is the structured corrupted
// set × abort round × input substitution space, -space classic the
// curated slice space of package adversary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairsearch:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fairsearch", flag.ContinueOnError)
	protoName := fs.String("proto", "2sfe-opt", "protocol to search")
	spaceName := fs.String("space", service.SpaceRaw, "strategy space (raw or classic)")
	wave := fs.Int("wave", 0, "first racing wave's per-arm runs (0 = engine default)")
	growth := fs.Int("growth", 0, "per-wave geometric growth factor (0 = engine default)")
	jsonOut := fs.Bool("json", false, "print the full search report as JSON")
	est := cliflags.RegisterEstimation(fs, cliflags.EstimationSpec{
		Runs:      5000,
		RunsUsage: "certification runs for the winner (and per-arm cost of exhaustive enumeration)",
		Sup:       true,
		SupRuns:   1000,
		SupUsage:  "racing run cap per arm",
		Seed:      1,
		Parallel:  true,
	})
	sf := cliflags.RegisterSearch(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	proto, _, err := service.BuildProtocol(*protoName)
	if err != nil {
		return err
	}
	space, err := service.BuildSpace(*spaceName, *protoName)
	if err != nil {
		return err
	}
	gamma := service.DefaultPayoff(*protoName)

	var opts []service.JobOption
	if sf.Checkpoint != "" {
		opts = append(opts, service.WithCheckpoint(sf.Checkpoint))
	}
	pool := service.New(service.Config{Workers: 1, CacheSize: -1, Parallelism: est.Parallel})
	defer pool.Close()
	job, err := pool.Submit(service.SearchParams{
		Proto: *protoName, Space: *spaceName,
		Wave: *wave, Growth: *growth,
		RaceRuns: est.Sup, FinalRuns: est.Runs,
		Delta: sf.ElimDelta, MaxArms: sf.Arms,
		Seed: est.Seed,
	}, opts...)
	if err != nil {
		return err
	}
	res, err := job.Wait()
	if err != nil {
		return err
	}
	rep := res.Search

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("protocol : %s (n=%d, rounds=%d)\n", proto.Name(), proto.NumParties(), proto.NumRounds())
	fmt.Printf("space    : %s (%d arms)\n", space.Describe(), space.Len())
	fmt.Printf("payoff   : %+v\n", gamma)
	fmt.Printf("best     : %s\n", rep.Best)
	fmt.Printf("utility  : %s\n", rep.BestReport.Utility)
	fmt.Printf("events   : E00=%.4f E01=%.4f E10=%.4f E11=%.4f\n",
		rep.BestReport.EventFreq[core.E00], rep.BestReport.EventFreq[core.E01],
		rep.BestReport.EventFreq[core.E10], rep.BestReport.EventFreq[core.E11])
	fmt.Printf("schedule : %d waves, δ=%g (δ'=%.2e per check, z=%.2f)\n",
		rep.Waves, rep.Delta, rep.DeltaPrime, rep.Z)
	if rep.Replayed > 0 {
		fmt.Printf("resumed  : %d records replayed from %s\n", rep.Replayed, sf.Checkpoint)
	}
	fmt.Printf("cost     : %d runs vs %d exhaustive — %.1f× savings\n",
		rep.TotalRuns, rep.ExhaustiveRuns, rep.Savings())
	counts := map[string]int{}
	for _, a := range rep.Arms {
		counts[a.Status]++
	}
	fmt.Printf("arms     : %d best, %d survivors, %d killed, %d pruned\n",
		counts[search.StatusBest], counts[search.StatusSurvivor],
		counts[search.StatusKilled], counts[search.StatusPruned])
	for _, a := range rep.Arms {
		if a.Status == search.StatusBest || a.Status == search.StatusSurvivor {
			fmt.Printf("  %-28s %-8s bound=%.3f runs=%-6d mean=%.4f [%.4f, %.4f]\n",
				a.Name, a.Status, a.Bound, a.Runs, a.Mean, a.Lo, a.Hi)
		}
	}
	return nil
}
