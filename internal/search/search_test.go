package search_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/twoparty"
	"repro/internal/search"
	"repro/internal/sim"
)

func uniform2(max int) core.InputSampler {
	return func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(max)), uint64(r.Intn(max))}
	}
}

// family is one acceptance target: a protocol, its raw strategy space,
// and the paper's closed-form sup.
type family struct {
	name    string
	proto   sim.Protocol
	space   core.StrategySpace
	gamma   core.Payoff
	sampler core.InputSampler
	closed  float64 // closed-form sup_A u(Π, A)
	slack   float64 // Monte-Carlo slack on the closed-form check
}

func acceptanceFamilies(t testing.TB) []family {
	t.Helper()
	std := core.StandardPayoff()
	gk, err := gordonkatz.NewPolyDomain(gordonkatz.AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sfe := twoparty.New(twoparty.Swap())
	pi1, pi2 := contract.Pi1{}, contract.Pi2{}
	return []family{
		{
			name:    "2sfe",
			proto:   sfe,
			space:   adversary.NewRawTwoParty(sfe.NumRounds(), adversary.WithSubstitutions(uint64(0), uint64(1))),
			gamma:   std,
			sampler: uniform2(1 << 20),
			closed:  core.TwoPartyOptimalBound(std), // (γ10+γ11)/2 = 3/4
			slack:   0.02,
		},
		{
			name:    "pi1",
			proto:   pi1,
			space:   adversary.NewRawTwoParty(pi1.NumRounds(), adversary.WithSubstitutions(uint64(0))),
			gamma:   std,
			sampler: uniform2(1 << 16),
			closed:  std.G10, // Π1 is unfair: the aborting attacker earns γ10 outright
			slack:   0.02,
		},
		{
			name:    "pi2",
			proto:   pi2,
			space:   adversary.NewRawTwoParty(pi2.NumRounds(), adversary.WithSubstitutions(uint64(0))),
			gamma:   std,
			sampler: uniform2(1 << 16),
			closed:  core.TwoPartyOptimalBound(std), // Π2 is optimal: (γ10+γ11)/2
			slack:   0.02,
		},
		{
			name:  "gk-polydomain:2",
			proto: gk,
			space: adversary.NewRawTwoParty(gk.NumRounds(),
				adversary.WithFirstHit(func(p sim.PartyID) sim.Adversary { return gordonkatz.NewFirstHit(p) })),
			gamma:   core.GordonKatzPayoff(),
			sampler: core.FixedInputs(uint64(1), uint64(1)),
			closed:  core.GKFirstHitExact(gk.Iterations, 0.5), // exact first-hit success
			slack:   0.03,
		},
	}
}

var acceptanceOptions = search.Options{
	Wave:      100,
	Growth:    2,
	RaceRuns:  600,
	FinalRuns: 6000,
	Delta:     0.05,
}

// TestRecoversOptimal is the acceptance pin: on every family the racing
// engine recovers the proof-optimal adversary from the raw space — a
// strategy in the best class of the exhaustive evaluation
// (core.SupUtilitySpace at FinalRuns runs per strategy), at the
// closed-form sup of the paper, for ≥10× fewer estimator runs than that
// evaluation. Everything here is a pure function of the seeds, so a pass
// is a deterministic pass.
func TestRecoversOptimal(t *testing.T) {
	for _, f := range acceptanceFamilies(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			seed := int64(42)
			rep, err := search.Run(f.proto, f.space, f.gamma, f.sampler, seed, acceptanceOptions)
			if err != nil {
				t.Fatal(err)
			}
			runs := acceptanceOptions.FinalRuns
			ground, err := core.SupUtilitySpace(f.proto, f.space, f.gamma, f.sampler, runs, seed)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(f.space.Len()) * int64(runs); rep.ExhaustiveRuns != want {
				t.Errorf("comparator cost %d runs, want %d arms × %d", rep.ExhaustiveRuns, f.space.Len(), runs)
			}

			// The winner must sit in the exhaustive best equivalence class:
			// its exhaustive interval overlaps the exhaustive best's.
			// (Strict name equality would be wrong — symmetric arms tie at
			// the true optimum and either may lead a finite sample.)
			winner, ok := ground.All[rep.Best]
			if !ok {
				t.Fatalf("winner %q missing from the exhaustive report", rep.Best)
			}
			if best := ground.BestReport.Utility; winner.Utility.Hi() < best.Lo() {
				t.Errorf("search best %q (exhaustive CI [%g, %g]) is outside the best class of %q ([%g, %g])",
					rep.Best, winner.Utility.Lo(), winner.Utility.Hi(), ground.Best, best.Lo(), best.Hi())
			}
			// The certification is a fresh FinalRuns estimate at the
			// winner's arm seed, the low 63 bits of its key; across the tie
			// class, the search and exhaustive sups agree within combined
			// half-widths.
			var arm search.ArmResult
			for _, a := range rep.Arms {
				if a.Name == rep.Best {
					arm = a
				}
			}
			h, err := strconv.ParseUint(arm.Key, 16, 64)
			if err != nil {
				t.Fatalf("winner %q key %q: %v", rep.Best, arm.Key, err)
			}
			fresh, err := core.EstimateUtility(f.proto, f.space.At(arm.Index).Adv, f.gamma, f.sampler,
				runs, int64(h&^(1<<63)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.BestReport, fresh) {
				t.Errorf("winner %q certifies %v, a fresh estimate at its arm seed says %v — certification seeds drifted",
					rep.Best, rep.BestReport.Utility, fresh.Utility)
			}
			diff := math.Abs(rep.BestReport.Utility.Mean - ground.BestReport.Utility.Mean)
			if hw := rep.BestReport.Utility.HalfWidth + ground.BestReport.Utility.HalfWidth; diff > hw {
				t.Errorf("search sup %v vs exhaustive sup %v: differ by %g > combined half-width %g",
					rep.BestReport.Utility, ground.BestReport.Utility, diff, hw)
			}
			// Closed-form agreement (Definition 1 against the paper's
			// bounds).
			if d := math.Abs(ground.BestReport.Utility.Mean - f.closed); d > ground.BestReport.Utility.HalfWidth+f.slack {
				t.Errorf("exhaustive sup %v misses closed form %g by %g",
					ground.BestReport.Utility, f.closed, d)
			}
			if d := math.Abs(rep.BestReport.Utility.Mean - f.closed); d > rep.BestReport.Utility.HalfWidth+f.slack {
				t.Errorf("search sup %v misses closed form %g by %g",
					rep.BestReport.Utility, f.closed, d)
			}
			// The acceptance ratio: ≥10× fewer runs than exhaustive.
			if s := rep.Savings(); s < 10 {
				t.Errorf("savings ratio %.2f < 10 (search %d runs, exhaustive %d)",
					s, rep.TotalRuns, rep.ExhaustiveRuns)
			}
			t.Logf("%s: best %q u=%v, savings %.1f× (%d vs %d runs), %d waves",
				f.name, rep.Best, rep.BestReport.Utility, rep.Savings(),
				rep.TotalRuns, rep.ExhaustiveRuns, rep.Waves)
		})
	}
}

// understated reports a static bound of at most half the standard
// payoff's γ10 for every arm. The bound is unsound for the aborting
// arms, which earn more, so once one of them is admitted the rest of
// its equal-bound admission group is pruned — after the group was
// estimated side by side. Those estimates must leave no trace.
type understated struct{ *adversary.RawTwoParty }

func (u understated) Describe() string { return u.RawTwoParty.Describe() + "+understated" }

func (u understated) UpperBound(i int, gamma core.Payoff) float64 {
	return math.Min(u.RawTwoParty.UpperBound(i, gamma), gamma.G10/2)
}

// TestSearchDeterministicAcrossParallelism pins the scheduling-only
// contract: parallelism changes neither the report, nor its engine
// Metrics, nor the checkpoint bytes. Every simulated run is accounted
// exactly once — in an arm's runs, in a record and in Metrics — so an
// estimate the admission pass discards (a group cut by MaxArms, or one
// pruned by an understated bound) cannot leak runs, metrics or a
// record.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	f := acceptanceFamilies(t)[0]
	raw := f.space.(*adversary.RawTwoParty)
	cases := []struct {
		name     string
		space    core.StrategySpace
		maxArms  int
		prunedBy string // the group-cutting decision the case must reach
	}{
		{"raw", f.space, 0, ""},
		{"arms-cap", f.space, 5, "arms-cap"},
		{"understated", understated{raw}, 0, "incumbent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *search.Report
			var firstBytes []byte
			for _, par := range []int{1, 2, 3, 4} {
				o := acceptanceOptions
				o.FinalRuns = 1000
				o.RaceRuns = 300
				o.MaxArms = tc.maxArms
				o.Parallelism = par
				o.Checkpoint = filepath.Join(t.TempDir(), "cp.jsonl")
				rep, err := search.Run(f.proto, tc.space, f.gamma, f.sampler, 7, o)
				if err != nil {
					t.Fatal(err)
				}
				cp, err := os.ReadFile(o.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				checkAccounting(t, rep, cp)
				if first == nil {
					first, firstBytes = rep, cp
					if tc.prunedBy != "" {
						checkDiscards(t, rep, tc.prunedBy)
					}
					continue
				}
				assertReportsEqual(t, first, rep)
				if rep.Metrics != first.Metrics || rep.TotalRuns != first.TotalRuns {
					t.Errorf("parallelism %d: metrics %+v over %d runs, parallelism 1: %+v over %d",
						par, rep.Metrics, rep.TotalRuns, first.Metrics, first.TotalRuns)
				}
				if !bytes.Equal(cp, firstBytes) {
					t.Errorf("parallelism %d: checkpoint bytes differ from parallelism 1", par)
				}
			}
		})
	}
}

// checkAccounting: the engine's run count, the arms' runs, the
// checkpoint records' runs and Metrics.Runs all count the same runs.
func checkAccounting(t *testing.T, rep *search.Report, cp []byte) {
	t.Helper()
	var arms, records int64
	for _, a := range rep.Arms {
		arms += a.Runs
	}
	lines := bytes.Split(bytes.TrimSpace(cp), []byte("\n"))
	for _, line := range lines[1:] {
		var rec search.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		records += int64(rec.Runs)
	}
	if arms != rep.TotalRuns || records != rep.TotalRuns || rep.Metrics.Runs != rep.TotalRuns {
		t.Errorf("runs: total %d, arms %d, records %d, metrics %d", rep.TotalRuns, arms, records, rep.Metrics.Runs)
	}
	if len(lines)-1 < len(rep.Arms) {
		t.Errorf("%d records for %d arms", len(lines)-1, len(rep.Arms))
	}
}

// checkDiscards makes sure a case reaches the admission decision it is
// there for: an arm pruned by the cap ("arms-cap") or by the incumbent
// ("incumbent") at a bound another arm was admitted at, so its group
// was estimated before the decision pruned it.
func checkDiscards(t *testing.T, rep *search.Report, by string) {
	t.Helper()
	admitted := map[float64]bool{}
	for _, a := range rep.Arms {
		if a.Status != search.StatusPruned {
			admitted[a.Bound] = true
		}
	}
	for _, a := range rep.Arms {
		if a.Status == search.StatusPruned && admitted[a.Bound] && (a.By == "arms-cap") == (by == "arms-cap") {
			return
		}
	}
	t.Errorf("no arm pruned by %s beside an admitted arm of its bound", by)
}

// TestSearchBoundsPrune pins the branch-and-bound step: under the
// standard payoff every setup-abort and passive arm (static bound 0)
// must be pruned with zero runs, and the honest never-abort arms
// (bound γ11) must never outlive the racing leader's certification.
func TestSearchBoundsPrune(t *testing.T) {
	f := acceptanceFamilies(t)[0]
	o := acceptanceOptions
	o.FinalRuns = 1000
	o.RaceRuns = 300
	rep, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Arms {
		if a.Bound == 0 {
			if a.Status != search.StatusPruned || a.Runs != 0 {
				t.Errorf("zero-bound arm %q: status %s with %d runs, want pruned with 0", a.Name, a.Status, a.Runs)
			}
		}
		if a.Status == search.StatusBest && a.Name != rep.Best {
			t.Errorf("arm %q marked best but report names %q", a.Name, rep.Best)
		}
	}
}

// TestMaxArmsBeam pins the -arms beam knob: at most MaxArms arms race.
func TestMaxArmsBeam(t *testing.T) {
	f := acceptanceFamilies(t)[0]
	o := acceptanceOptions
	o.FinalRuns = 500
	o.RaceRuns = 200
	o.MaxArms = 4
	rep, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	raced := 0
	for _, a := range rep.Arms {
		if a.Status != search.StatusPruned {
			raced++
		}
		if a.Status == search.StatusPruned && a.Runs != 0 {
			t.Errorf("pruned arm %q consumed %d runs", a.Name, a.Runs)
		}
	}
	if raced > 4 {
		t.Errorf("%d arms raced, beam allows 4", raced)
	}
}
