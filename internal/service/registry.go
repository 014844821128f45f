// Package service is the shared request path behind the fairness
// commands and the fairnessd daemon: a Job abstraction over the
// estimation engine (estimate / sup / sweep / experiment jobs with
// validated, typed parameters), a bounded worker pool that executes
// them, per-job engine-metrics aggregation, and an LRU result cache
// keyed by the sweep's FNV-1a cell hash so repeated (params, seed)
// requests are free.
//
// The cache is sound because of the estimator's determinism contract:
// an estimate is a pure function of (params, seed) — parallelism and
// observers change scheduling only, never results — so two submissions with equal canonical parameter strings
// and seeds would compute bit-identical reports. Serving the second
// from cache returns the same bits without the work. Scheduling-only
// knobs are accordingly excluded from cache keys, and jobs that carry
// execution-local options (a trace sink, a checkpoint path, a progress
// callback) skip the cache read so their side effects still happen.
package service

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

// BuildProtocol resolves a protocol name ("2sfe-opt", "nsfe-gmw12:4",
// "gk-polydomain:8", …) to an instance plus its canonical input
// sampler — the distribution the corresponding experiment or example
// draws from. This is the registry the fairsim command and the
// fairnessd daemon share.
//
// Protocols: pi1, pi2, 2sfe-opt, 2sfe-fixed2, 2sfe-oneround,
// nsfe-opt:N, nsfe-gmw12:N, nsfe-lemma18:N, nsfe-hybrid:N,
// gk-polydomain:P, gk-polyrange:P, gk-pitilde.
//
// A protocol with more than core.MaxRounds message rounds is rejected:
// for gk-polydomain that is P > 256, for gk-polyrange P > 16.
func BuildProtocol(name string) (sim.Protocol, core.InputSampler, error) {
	p, sampler, err := buildProtocol(name)
	if err != nil {
		return nil, nil, err
	}
	if err := core.CheckRounds(p); err != nil {
		return nil, nil, err
	}
	return p, sampler, nil
}

func buildProtocol(name string) (sim.Protocol, core.InputSampler, error) {
	base, arg, _ := strings.Cut(name, ":")
	n := 0
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil {
			return nil, nil, fmt.Errorf("bad protocol argument %q: %w", arg, err)
		}
		n = v
	}
	uniformN := func(parties, max int) core.InputSampler {
		return func(r *rand.Rand) []sim.Value {
			in := make([]sim.Value, parties)
			for i := range in {
				in[i] = uint64(r.Intn(max))
			}
			return in
		}
	}
	switch base {
	case "pi1":
		return contract.Pi1{}, uniformN(2, 1<<16), nil
	case "pi2":
		return contract.Pi2{}, uniformN(2, 1<<16), nil
	case "2sfe-opt":
		return twoparty.New(twoparty.Swap()), uniformN(2, 1<<20), nil
	case "2sfe-fixed2":
		return twoparty.NewFixedOrder(twoparty.Swap(), 2), uniformN(2, 1<<20), nil
	case "2sfe-oneround":
		return twoparty.NewOneRound(twoparty.Swap()), uniformN(2, 1<<20), nil
	case "nsfe-opt", "nsfe-gmw12", "nsfe-lemma18", "nsfe-hybrid":
		if n < 2 {
			n = 4
		}
		fn, err := multiparty.Concat(n, 8)
		if err != nil {
			return nil, nil, err
		}
		var p sim.Protocol
		switch base {
		case "nsfe-opt":
			p = multiparty.NewOptN(fn)
		case "nsfe-gmw12":
			p = multiparty.NewGMWHalf(fn)
		case "nsfe-lemma18":
			p = multiparty.NewLemma18(fn)
		default:
			p = multiparty.NewHybrid(fn)
		}
		return p, uniformN(n, 256), nil
	case "gk-polydomain", "gk-polyrange":
		if arg == "" {
			n = 4
		}
		if n < 1 {
			return nil, nil, fmt.Errorf("gk protocols need p ≥ 1, got %d", n)
		}
		var (
			p   gordonkatz.Protocol
			err error
		)
		if base == "gk-polydomain" {
			p, err = gordonkatz.NewPolyDomain(gordonkatz.AND(), n)
		} else {
			p, err = gordonkatz.NewPolyRange(gordonkatz.AND(), n)
		}
		if err != nil {
			return nil, nil, err
		}
		return p, core.FixedInputs(uint64(1), uint64(1)), nil
	case "gk-pitilde":
		p, err := gordonkatz.NewPitilde()
		if err != nil {
			return nil, nil, err
		}
		return p, uniformN(2, 2), nil
	default:
		return nil, nil, fmt.Errorf("unknown protocol %q", name)
	}
}

// BuildAdversary resolves an adversary name against a protocol with n
// parties.
//
// Adversaries: passive, static:IDS, lock-abort:IDS, abort:R:IDS,
// setup-abort:IDS, agen, allbut-mixer, leak-extractor
// (IDS is a +-separated party list, e.g. lock-abort:1+3).
func BuildAdversary(name string, n int) (sim.Adversary, error) {
	parts := strings.Split(name, ":")
	parseIDs := func(s string) ([]sim.PartyID, error) {
		var ids []sim.PartyID
		for _, tok := range strings.Split(s, "+") {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("bad party id %q: %w", tok, err)
			}
			ids = append(ids, sim.PartyID(v))
		}
		return ids, nil
	}
	switch parts[0] {
	case "passive":
		return sim.Passive{}, nil
	case "agen":
		return adversary.NewAgen(), nil
	case "allbut-mixer":
		return adversary.NewAllButMixer(n), nil
	case "leak-extractor":
		return gordonkatz.NewLeakExtractor(), nil
	case "static", "lock-abort", "setup-abort":
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s needs a party list, e.g. %s:1+2", parts[0], parts[0])
		}
		ids, err := parseIDs(parts[1])
		if err != nil {
			return nil, err
		}
		switch parts[0] {
		case "static":
			return adversary.NewStatic(ids...), nil
		case "lock-abort":
			return adversary.NewLockAbort(ids...), nil
		default:
			return adversary.NewSetupAbort(ids...), nil
		}
	case "abort":
		if len(parts) != 3 {
			return nil, fmt.Errorf("abort needs round and party list, e.g. abort:2:1")
		}
		round, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad round %q: %w", parts[1], err)
		}
		ids, err := parseIDs(parts[2])
		if err != nil {
			return nil, err
		}
		return adversary.NewAbortAt(round, ids...), nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
}

// DefaultPayoff is the payoff vector a protocol's experiments use when
// the request does not carry one: the Gordon–Katz vector for the gk
// family, the standard Γ+fair vector otherwise.
func DefaultPayoff(protoName string) core.Payoff {
	if strings.HasPrefix(protoName, "gk-") {
		return core.GordonKatzPayoff()
	}
	return core.StandardPayoff()
}
