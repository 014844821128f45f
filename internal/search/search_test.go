package search_test

import (
	"math"
	"math/rand"
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
// engine recovers the proof-optimal adversary from the raw space — the
// same best-class strategy and the same utility (within certified
// half-widths) as exhaustive enumeration, the closed-form sup of the
// paper, at ≥10× fewer estimator runs. Everything here is a pure
// function of the seeds, so a pass is a deterministic pass.
func TestRecoversOptimal(t *testing.T) {
	for _, f := range acceptanceFamilies(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			seed := int64(42)
			rep, err := search.Run(f.proto, f.space, f.gamma, f.sampler, seed, acceptanceOptions)
			if err != nil {
				t.Fatal(err)
			}
			exh := acceptanceOptions
			exh.Exhaustive = true
			ground, err := search.Run(f.proto, f.space, f.gamma, f.sampler, seed, exh)
			if err != nil {
				t.Fatal(err)
			}
			if ground.TotalRuns != rep.ExhaustiveRuns {
				t.Errorf("comparator cost %d runs, search predicted %d", ground.TotalRuns, rep.ExhaustiveRuns)
			}

			// The winner must sit in the exhaustive best equivalence class:
			// its certification interval overlaps the exhaustive best's.
			// (Strict name equality would be wrong — symmetric arms tie at
			// the true optimum and either may lead a finite sample.)
			var groundBest, searchArm *search.ArmResult
			for i := range ground.Arms {
				a := &ground.Arms[i]
				if a.Name == ground.Best {
					groundBest = a
				}
				if a.Name == rep.Best {
					searchArm = a
				}
			}
			if groundBest == nil || searchArm == nil {
				t.Fatalf("arms %q/%q missing from exhaustive report", ground.Best, rep.Best)
			}
			if searchArm.Hi < groundBest.Lo {
				t.Errorf("search best %q (exhaustive CI [%g, %g]) is outside the best class of %q ([%g, %g])",
					rep.Best, searchArm.Lo, searchArm.Hi, ground.Best, groundBest.Lo, groundBest.Hi)
			}
			// Both certification estimates run at the same (arm seed,
			// FinalRuns), so when the names agree the means must agree
			// exactly; across the tie class, within combined half-widths.
			if rep.Best == ground.Best && rep.BestReport.Utility.Mean != ground.BestReport.Utility.Mean {
				t.Errorf("same winner %q but means differ: %v vs %v — certification seeds drifted",
					rep.Best, rep.BestReport.Utility, ground.BestReport.Utility)
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

// TestSearchDeterministicAcrossParallelism pins the scheduling-only
// contract: parallelism and batch size never change the report.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	f := acceptanceFamilies(t)[0]
	o := acceptanceOptions
	o.FinalRuns = 1000
	o.RaceRuns = 300
	o.Parallelism = 1
	r1, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 7, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 4
	o.BatchSize = 3
	r2, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 7, o)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, r1, r2)
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
