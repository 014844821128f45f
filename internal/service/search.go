package service

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/search"
	"repro/internal/sim"
)

// Strategy-space names BuildSpace resolves.
const (
	// SpaceRaw is the raw structured space (corrupted set × abort round ×
	// input substitution) the search engine branch-and-bounds over.
	SpaceRaw = "raw"
	// SpaceClassic is the curated slice space of package adversary
	// (TwoPartySpace / MultiPartySpace), adapted through core.SliceSpace.
	SpaceClassic = "classic"
)

// rawSubstitutions is the default substitution axis of the raw space:
// the two boolean-ish corner inputs, enough to expose substitution
// attacks on every registry protocol without blowing up the arm count.
var rawSubstitutions = []sim.Value{uint64(0), uint64(1)}

// BuildSpace resolves a strategy-space name ("raw", "classic", or ""
// for the default raw space) against a registry protocol. The raw space
// is two-party only; classic follows the protocol's party count. For
// the Gordon–Katz protocols the raw space additionally carries the
// exact first-hit round-guessing arm.
func BuildSpace(name, protoName string) (core.StrategySpace, error) {
	proto, _, err := BuildProtocol(protoName)
	if err != nil {
		return nil, err
	}
	switch name {
	case "", SpaceRaw:
		if n := proto.NumParties(); n != 2 {
			return nil, fmt.Errorf("space %q is two-party only; protocol %s has %d parties (use %q)",
				SpaceRaw, protoName, n, SpaceClassic)
		}
		opts := []adversary.RawOption{adversary.WithSubstitutions(rawSubstitutions...)}
		if strings.HasPrefix(protoName, "gk-poly") {
			opts = append(opts, adversary.WithFirstHit(func(p sim.PartyID) sim.Adversary {
				return gordonkatz.NewFirstHit(p)
			}))
		}
		return adversary.NewRawTwoParty(proto.NumRounds(), opts...), nil
	case SpaceClassic:
		if proto.NumParties() == 2 {
			return core.SliceSpace(adversary.TwoPartySpace(proto.NumRounds())), nil
		}
		return core.SliceSpace(adversary.MultiPartySpace(proto.NumParties(), proto.NumRounds())), nil
	default:
		return nil, fmt.Errorf("unknown strategy space %q (want %q or %q)", name, SpaceRaw, SpaceClassic)
	}
}

// SearchParams describes one best-response search: protocol and
// strategy space by registry name, optional payoff override, and the
// racing engine's statistical knobs. Zero knobs select the engine
// defaults (search.Options); scheduling-only settings (parallelism,
// checkpoint path) arrive as job options, never here — the cache key
// must cover exactly the knobs that can change the result.
type SearchParams struct {
	Proto string `json:"proto"`
	// Space names the strategy space ("raw" default, "classic").
	Space string      `json:"space,omitempty"`
	Gamma *[4]float64 `json:"gamma,omitempty"`
	// Wave, Growth, RaceRuns, FinalRuns, Delta, MaxArms mirror
	// search.Options (zero = default).
	Wave      int     `json:"wave,omitempty"`
	Growth    int     `json:"growth,omitempty"`
	RaceRuns  int     `json:"race_runs,omitempty"`
	FinalRuns int     `json:"final_runs,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	MaxArms   int     `json:"max_arms,omitempty"`
	Seed      int64   `json:"seed"`
}

// Kind implements Params.
func (p SearchParams) Kind() Kind { return KindSearch }

// Validate implements Params.
func (p SearchParams) Validate() error {
	if _, err := BuildSpace(p.Space, p.Proto); err != nil {
		return fmt.Errorf("service: search: %w", err)
	}
	if p.Wave < 0 || p.Growth < 0 || p.RaceRuns < 0 || p.FinalRuns < 0 || p.MaxArms < 0 {
		return fmt.Errorf("service: search: negative racing knob")
	}
	if p.Delta < 0 || p.Delta >= 1 {
		return fmt.Errorf("service: search: delta %g outside [0, 1)", p.Delta)
	}
	return nil
}

// Options maps the statistical knobs onto search.Options (zero fields
// fall through to the engine defaults).
func (p SearchParams) Options() search.Options {
	return search.Options{
		Wave: p.Wave, Growth: p.Growth,
		RaceRuns: p.RaceRuns, FinalRuns: p.FinalRuns,
		Delta: p.Delta, MaxArms: p.MaxArms,
	}
}

// paramString delegates to search.ParamString — the engine's canonical
// encoding, which excludes every scheduling knob by the search's
// determinism contract. Submit has already rejected unresolvable names
// via Validate, so the empty string is never a key's input.
func (p SearchParams) paramString() string {
	space, err := BuildSpace(p.Space, p.Proto)
	if err != nil {
		return ""
	}
	return search.ParamString(p.Proto, space.Describe(), resolvePayoff(p.Gamma, p.Proto), p.Options())
}

func (p SearchParams) seed() int64 { return p.Seed }
