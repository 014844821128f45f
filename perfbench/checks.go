package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Correctness checks. None depends on wall time or scheduling order,
// and none can trip on a correct program:
//
//   - exact checks compare bytes, bits, counts or headers;
//   - closed-form checks compare an answer with a bound from
//     internal/core/bounds.go through the benchmark's own Hoeffding
//     interval at error probability checkDelta. Hoeffding holds at every
//     sample size, and at 1e-12 per check a run of ~10⁵ checks trips
//     with probability below 1e-7 on a correct program.
//
// The answers' own HalfWidth is a 95% normal interval and is never used
// as a pass criterion: it misses an exact value one answer in twenty.

const checkDelta = 1e-12

// hoeffding is the benchmark's interval half-width for a mean of n runs
// of a payoff with the given span.
func hoeffding(n int64, span float64) float64 {
	return span * stats.HoeffdingHalfWidth(n, checkDelta)
}

// payoffSpan is max γ − min γ, the range of one run's payoff.
func payoffSpan(g core.Payoff) float64 {
	lo := math.Min(math.Min(g.G00, g.G01), math.Min(g.G10, g.G11))
	hi := math.Max(math.Max(g.G00, g.G01), math.Max(g.G10, g.G11))
	return hi - lo
}

// checkAtMost fails when mean is certifiably above bound.
func checkAtMost(what string, mean float64, n int64, g core.Payoff, bound float64) error {
	if m := hoeffding(n, payoffSpan(g)); mean-m > bound {
		return fmt.Errorf("%s: mean %v − margin %v exceeds closed-form bound %v", what, mean, m, bound)
	}
	return nil
}

// checkContains fails when the interval around mean excludes exact.
func checkContains(what string, mean float64, n int64, g core.Payoff, exact float64) error {
	if m := hoeffding(n, payoffSpan(g)); math.Abs(mean-exact) > m {
		return fmt.Errorf("%s: mean %v ± %v excludes closed-form value %v", what, mean, m, exact)
	}
	return nil
}

// protoArg parses the numeric argument of a registry name ("gk-polydomain:3" → 3).
func protoArg(proto string) (int, error) {
	_, arg, ok := strings.Cut(proto, ":")
	if !ok {
		return 0, fmt.Errorf("protocol %q has no argument", proto)
	}
	return strconv.Atoi(arg)
}

// serveBound is the closed-form ceiling on any adversary's utility
// against a serve protocol: Theorem 3 for ΠOpt-2SFE and Π2, the
// Gordon–Katz 1/p bound (Theorems 23/24) for the poly-domain and
// poly-range protocols, and the trivial ceiling max γ otherwise.
func serveBound(proto string, g core.Payoff) (float64, error) {
	switch {
	case proto == "2sfe-opt" || proto == "pi2":
		return core.TwoPartyOptimalBound(g), nil
	case strings.HasPrefix(proto, "gk-polydomain:") || strings.HasPrefix(proto, "gk-polyrange:"):
		p, err := protoArg(proto)
		if err != nil {
			return 0, err
		}
		return core.GordonKatzBound(g, p), nil
	default:
		return math.Max(math.Max(g.G00, g.G01), math.Max(g.G10, g.G11)), nil
	}
}

// searchSup is the proof-optimal sup over a search-race space: Theorem 3
// for ΠOpt-2SFE and Π2, γ10 for the unfair Π1, and the exact first-hit
// law for Gordon–Katz (the raw space carries the first-hit arm).
func searchSup(proto string, g core.Payoff) (float64, error) {
	switch proto {
	case "2sfe-opt", "pi2":
		return core.TwoPartyOptimalBound(g), nil
	case "pi1":
		return g.G10, nil
	case "gk-polydomain:2":
		p, _, err := service.BuildProtocol(proto)
		if err != nil {
			return 0, err
		}
		return core.GKFirstHitExact(p.NumRounds()/2, 0.5), nil
	}
	return 0, fmt.Errorf("no closed-form sup for %q", proto)
}

// checkHTTP is the exact transport check: status 200 and the expected
// cache verdict.
func checkHTTP(status int, cache, wantCache string) error {
	if status != 200 {
		return fmt.Errorf("HTTP status %d", status)
	}
	if cache != wantCache {
		return fmt.Errorf("X-Fairnessd-Cache %q, want %q", cache, wantCache)
	}
	return nil
}

// checkSameBody is serve-hot's exact check: a cached answer is
// byte-identical to the answer its point returned during set-up.
func checkSameBody(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cached body (%d bytes) differs from the set-up body (%d bytes)", len(got), len(want))
	}
	return nil
}

// statView, reportView and the answer types are the parts of the
// daemon's response bodies the checks read.
type statView struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	N         int64   `json:"n"`
}

type reportView struct {
	Utility statView `json:"utility"`
	Runs    int      `json:"runs"`
}

type serveAnswer struct {
	Proto      string     `json:"proto"`
	Adv        string     `json:"adv"`
	Advs       []string   `json:"advs"`
	Gamma      [4]float64 `json:"gamma"`
	Runs       int        `json:"runs"`
	Seed       int64      `json:"seed"`
	Report     reportView `json:"report"`
	Best       string     `json:"best"`
	BestReport reportView `json:"best_report"`
	Strategies []struct {
		Name   string     `json:"name"`
		Report reportView `json:"report"`
	} `json:"strategies"`
}

// daemonRuns is the run count the daemon fills into requests that omit
// one (its -runs default).
const daemonRuns = 1000

// parseServeAnswer decodes a body and checks that it answers op: the
// echoed request, the run counts, and every utility against the
// protocol's closed-form ceiling.
func parseServeAnswer(op serveOp, body []byte) (serveAnswer, error) {
	var a serveAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("decode answer: %w", err)
	}
	if a.Proto != op.Shape.Proto || a.Seed != op.Seed || a.Runs != daemonRuns {
		return a, fmt.Errorf("answer echoes proto=%s seed=%d runs=%d, request was proto=%s seed=%d runs=%d",
			a.Proto, a.Seed, a.Runs, op.Shape.Proto, op.Seed, daemonRuns)
	}
	g := core.Payoff{G00: a.Gamma[0], G01: a.Gamma[1], G10: a.Gamma[2], G11: a.Gamma[3]}
	if g != service.DefaultPayoff(op.Shape.Proto) {
		return a, fmt.Errorf("answer payoff %v is not the %s default", a.Gamma, op.Shape.Proto)
	}
	bound, err := serveBound(op.Shape.Proto, g)
	if err != nil {
		return a, err
	}
	checkReport := func(name string, r reportView) error {
		if r.Runs != daemonRuns || r.Utility.N != daemonRuns {
			return fmt.Errorf("%s: report has runs=%d n=%d, want %d", name, r.Runs, r.Utility.N, daemonRuns)
		}
		return checkAtMost(name, r.Utility.Mean, r.Utility.N, g, bound)
	}
	if len(op.Shape.Advs) == 0 {
		if a.Adv != op.Shape.Adv {
			return a, fmt.Errorf("answer adversary %q, request %q", a.Adv, op.Shape.Adv)
		}
		return a, checkReport(op.Shape.name(), a.Report)
	}
	if len(a.Strategies) != len(op.Shape.Advs) {
		return a, fmt.Errorf("sup answer has %d strategies, request %d", len(a.Strategies), len(op.Shape.Advs))
	}
	found := false
	for _, s := range a.Strategies {
		if err := checkReport(op.Shape.Proto+" "+s.Name, s.Report); err != nil {
			return a, err
		}
		if s.Report.Utility.Mean > a.BestReport.Utility.Mean {
			return a, fmt.Errorf("sup best %q (%v) is below strategy %q (%v)",
				a.Best, a.BestReport.Utility.Mean, s.Name, s.Report.Utility.Mean)
		}
		if s.Name == a.Best {
			found = s.Report == a.BestReport
		}
	}
	if !found {
		return a, fmt.Errorf("sup best %q does not match its strategy report", a.Best)
	}
	return a, nil
}

// checkReplayEstimate is the traced run's exact check: the direct
// library call reproduces the daemon's utility bit for bit.
func checkReplayEstimate(a serveAnswer, rep core.UtilityReport) error {
	return sameStat(a.Proto+" "+a.Adv, a.Report.Utility, rep.Utility)
}

// checkReplaySup is checkReplayEstimate for sup answers: every
// strategy's utility and the chosen best.
func checkReplaySup(a serveAnswer, rep core.SupReport) error {
	if rep.Best != a.Best {
		return fmt.Errorf("%s sup: library best %q, daemon best %q", a.Proto, rep.Best, a.Best)
	}
	for _, s := range a.Strategies {
		lib, ok := rep.All[s.Name]
		if !ok {
			return fmt.Errorf("%s sup: library has no strategy %q", a.Proto, s.Name)
		}
		if err := sameStat(a.Proto+" "+s.Name, s.Report.Utility, lib.Utility); err != nil {
			return err
		}
	}
	return nil
}

func sameStat(what string, got statView, want stats.Estimate) error {
	if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
		math.Float64bits(got.HalfWidth) != math.Float64bits(want.HalfWidth) || got.N != want.N {
		return fmt.Errorf("%s: daemon utility %v±%v (n=%d) differs from library %v±%v (n=%d)",
			what, got.Mean, got.HalfWidth, got.N, want.Mean, want.HalfWidth, want.N)
	}
	return nil
}

// checkSweepRecord checks one sweep record: the engine's own verdict
// (a breach fails the op) and, for cells, the family's closed-form
// ceiling recomputed here from the paper at the benchmark's margin.
func checkSweepRecord(rec sweep.Record) error {
	if !rec.OK {
		return fmt.Errorf("record %s (%s %s n=%d t=%d) breaches its bound", rec.Key, rec.Family, rec.Adv, rec.N, rec.T)
	}
	if rec.Kind != "cell" {
		return nil
	}
	g := core.Payoff{G00: rec.Gamma[0], G01: rec.Gamma[1], G10: rec.Gamma[2], G11: rec.Gamma[3]}
	var bound float64
	switch rec.Family {
	case "2sfe", "pi2":
		bound = core.TwoPartyOptimalBound(g)
	case "oneround", "pi1":
		bound = g.G10
	case "optn":
		bound = core.MultiPartyTBound(g, rec.N, rec.T)
	case "gmwhalf":
		// Lemma 17's step profile: γ10 from an honest-majority breach on.
		bound = g.G11
		if rec.T >= (rec.N+1)/2 {
			bound = g.G10
		}
	case "gk":
		bound = core.GordonKatzBound(g, rec.P)
	default:
		return fmt.Errorf("record %s: unknown family %q", rec.Key, rec.Family)
	}
	if rec.Samples != int64(rec.Runs) || rec.Runs <= 0 {
		return fmt.Errorf("record %s: %d samples for %d runs", rec.Key, rec.Samples, rec.Runs)
	}
	return checkAtMost("record "+rec.Key, rec.Mean, rec.Samples, g, bound)
}

// checkSweepSummary checks the finished job: every planned record
// present, zero breaches.
func checkSweepSummary(sum *sweep.Summary, planned int) error {
	if sum == nil {
		return fmt.Errorf("sweep job returned no summary")
	}
	if len(sum.Records) != planned {
		return fmt.Errorf("sweep produced %d records, plan has %d", len(sum.Records), planned)
	}
	if len(sum.Breaches) != 0 {
		return fmt.Errorf("sweep summary has %d breaches", len(sum.Breaches))
	}
	return nil
}

// checkSearchWinner checks a search report: a certified winner whose
// FinalRuns-run interval contains the space's proof-optimal sup, and
// consistent run accounting.
func checkSearchWinner(p service.SearchParams, rep *search.Report) error {
	if rep == nil || rep.Best == "" {
		return fmt.Errorf("search %s seed %d: no winner", p.Proto, p.Seed)
	}
	u := rep.BestReport.Utility
	if u.N != int64(p.FinalRuns) {
		return fmt.Errorf("search %s: winner certified on %d runs, want %d", p.Proto, u.N, p.FinalRuns)
	}
	if rep.TotalRuns <= 0 || rep.TotalRuns > rep.ExhaustiveRuns {
		return fmt.Errorf("search %s: spent %d runs, exhaustive %d", p.Proto, rep.TotalRuns, rep.ExhaustiveRuns)
	}
	g := service.DefaultPayoff(p.Proto)
	sup, err := searchSup(p.Proto, g)
	if err != nil {
		return err
	}
	return checkContains(fmt.Sprintf("search %s winner %s", p.Proto, rep.Best), u.Mean, u.N, g, sup)
}

// digest folds answers, in op-list order, into one short hex string.
type digest struct{ h [32]byte }

func newDigest() *digest { return &digest{} }

// add chains one answer into the digest.
func (d *digest) add(answer []byte) {
	s := sha256.New()
	s.Write(d.h[:])
	s.Write(answer)
	s.Sum(d.h[:0])
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:8]) }

// checkDigests is the traced run's exact check that the untraced and
// traced replays of one seed gave identical answers.
func checkDigests(untraced, traced string) error {
	if untraced != traced {
		return fmt.Errorf("answer digest %s untraced vs %s traced: the same seed gave different answers", untraced, traced)
	}
	return nil
}
