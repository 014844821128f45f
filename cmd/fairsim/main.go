// Command fairsim runs a single protocol against a single adversary
// strategy and prints the resulting utility report — a REPL-style probe
// for exploring the fairness landscape.
//
// Usage:
//
//	fairsim -proto 2sfe-opt -adv lock-abort:1 -runs 2000 -seed 7 [-parallel P]
//	fairsim -proto 2sfe-opt -adv lock-abort:1 -runs 4 -trace out.jsonl
//	fairsim -print-trace out.jsonl
//
// -trace writes a structured JSONL transcript of every simulated run
// (the engine's observer event stream); -print-trace pretty-prints such
// a transcript round by round and exits.
//
// Protocols: pi1, pi2, 2sfe-opt, 2sfe-fixed2, 2sfe-oneround,
// nsfe-opt:N, nsfe-gmw12:N, nsfe-lemma18:N, nsfe-hybrid:N,
// gk-polydomain:P, gk-polyrange:P, gk-pitilde.
//
// Adversaries: passive, static:IDS, lock-abort:IDS, abort:R:IDS,
// setup-abort:IDS, agen, allbut-mixer, leak-extractor
// (IDS is a +-separated party list, e.g. lock-abort:1+3).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sim/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fairsim", flag.ContinueOnError)
	protoName := fs.String("proto", "2sfe-opt", "protocol to run")
	advName := fs.String("adv", "agen", "adversary strategy")
	est := cliflags.RegisterEstimation(fs, cliflags.EstimationSpec{
		Runs:       1000,
		Seed:       1,
		Parallel:   true,
		Trace:      true,
		TraceUsage: "write a JSONL transcript of every run to this file",
	})
	printTrace := fs.String("print-trace", "", "pretty-print a JSONL transcript file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printTrace != "" {
		f, err := os.Open(*printTrace)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		return trace.Fprint(os.Stdout, f)
	}

	proto, sampler, err := service.BuildProtocol(*protoName)
	if err != nil {
		return err
	}
	adv, err := service.BuildAdversary(*advName, proto.NumParties())
	if err != nil {
		return err
	}
	gamma := service.DefaultPayoff(*protoName)

	opts := []core.Option{core.WithParallelism(est.Parallel)}
	var sink *trace.Sink
	if est.Trace != "" {
		f, err := os.Create(est.Trace)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		sink = trace.NewSink(f)
		opts = append(opts, core.WithObserver(func(run int) sim.Observer {
			return sink.Recorder(trace.Meta{Strategy: *advName, Run: run})
		}))
	}

	rep, err := core.EstimateUtility(proto, adv, gamma, sampler, est.Runs, est.Seed, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("protocol : %s (n=%d, rounds=%d)\n", proto.Name(), proto.NumParties(), proto.NumRounds())
	fmt.Printf("adversary: %s\n", *advName)
	fmt.Printf("payoff   : %+v\n", gamma)
	fmt.Printf("utility  : %s\n", rep.Utility)
	fmt.Printf("events   : E00=%.4f E01=%.4f E10=%.4f E11=%.4f\n",
		rep.EventFreq[core.E00], rep.EventFreq[core.E01], rep.EventFreq[core.E10], rep.EventFreq[core.E11])
	fmt.Printf("violations=%.4f privacy-breaches=%.4f mean-corrupted=%.2f\n",
		rep.CorrectnessViolations, rep.PrivacyBreaches, rep.MeanCorrupted)
	m := rep.Metrics
	fmt.Printf("engine   : runs=%d rounds=%d msgs=%d broadcasts=%d corruptions=%d setup-aborts=%d\n",
		m.Runs, m.Rounds, m.Messages, m.Broadcasts, m.Corruptions, m.SetupAborts)
	if sink != nil {
		if err := sink.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		st := sink.Stats()
		if st.Runs != m.Runs || st.Rounds != m.Rounds || st.Sends != m.Messages {
			return fmt.Errorf("trace: transcript stats %+v disagree with engine metrics %+v", st, m)
		}
		fmt.Printf("trace    : %s (%d lines, %d runs; counts match engine metrics)\n",
			est.Trace, st.Lines, st.Runs)
	}
	return nil
}
