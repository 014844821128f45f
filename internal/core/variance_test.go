package core_test

// Engine-level tests for the variance-reduction options: control
// variates (exact-residual estimation) and common-random-numbers
// pairing. Everything here exercises the contract DESIGN.md §10 states:
// the options change coin streams or the estimator, never the estimand,
// and with all of them off the engine is untouched (the frozen
// byte-identity matrices in internal/sweep and internal/search pin that
// half). The two *RunsFloor tests are the levers' CI floors: each lever
// must keep saving at least a fixed factor of runs on the workload it
// was built for.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
	"repro/internal/stats"
)

func uniform2(r *rand.Rand) []sim.Value {
	return []sim.Value{uint64(r.Intn(1 << 20)), uint64(r.Intn(1 << 20))}
}

// TestGKFirstHitControlMean pins the control's exact law: E[C] is the
// payoff's γ10 times the first-hit probability, and the control pays
// γ10 exactly on E10 runs and nothing elsewhere.
func TestGKFirstHitControlMean(t *testing.T) {
	gamma := core.Payoff{G00: 0.1, G01: 0.2, G10: 0.8, G11: 0.4}
	cv := core.GKFirstHitControl(gamma, 8, 0.5)
	if want := 0.8 * core.GKFirstHitExact(8, 0.5); cv.Mean != want {
		t.Errorf("control mean %v, want %v", cv.Mean, want)
	}
	want := [4]float64{core.E10 - 1: 0.8}
	if cv.EventValue != want {
		t.Errorf("control event values %v, want %v", cv.EventValue, want)
	}
}

// TestControlVariateExactResidual: at the paper's Gordon–Katz payoff
// the first-hit control absorbs the entire payoff, so the residual is
// identically zero — the estimate equals the exact first-hit law with
// half-width exactly 0 at any run count, while the event frequencies
// (untouched by the control) still reflect the simulated runs.
func TestControlVariateExactResidual(t *testing.T) {
	proto, err := gordonkatz.NewPolyDomain(gordonkatz.AND(), 4)
	if err != nil {
		t.Fatal(err)
	}
	gamma := core.GordonKatzPayoff()
	cv := core.GKFirstHitControl(gamma, proto.NumRounds()/2, 0.5)
	const runs = 60
	rep, err := core.EstimateUtility(proto, gordonkatz.NewFirstHit(1), gamma,
		core.FixedInputs(uint64(1), uint64(1)), runs, 3, core.WithControlVariate(cv))
	if err != nil {
		t.Fatal(err)
	}
	exact := core.GKFirstHitExact(proto.NumRounds()/2, 0.5)
	if rep.Utility.Mean != exact {
		t.Errorf("residual estimate mean %v, want exact law %v", rep.Utility.Mean, exact)
	}
	if rep.Utility.HalfWidth != 0 {
		t.Errorf("zero residual: half-width %v, want exactly 0", rep.Utility.HalfWidth)
	}
	plain, err := core.EstimateUtility(proto, gordonkatz.NewFirstHit(1), gamma,
		core.FixedInputs(uint64(1), uint64(1)), runs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range core.Events() {
		if rep.EventFreq[e] != plain.EventFreq[e] {
			t.Errorf("event %v freq %v differs from plain %v — the control must not touch frequencies",
				e, rep.EventFreq[e], plain.EventFreq[e])
		}
	}
}

// TestControlVariateZeroIsIdentity: the zero control (no event value,
// mean 0) must reproduce the plain estimate exactly — subtracting
// nothing and re-centring by zero is the identity on every field.
func TestControlVariateZeroIsIdentity(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	gamma := core.StandardPayoff()
	plain, err := core.EstimateUtility(proto, adversary.NewAbortAt(2, 1), gamma, uniform2, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := core.EstimateUtility(proto, adversary.NewAbortAt(2, 1), gamma, uniform2, 150, 5,
		core.WithControlVariate(core.ControlVariate{Name: "zero"}))
	if err != nil {
		t.Fatal(err)
	}
	if cv.Utility != plain.Utility {
		t.Errorf("zero control changed the estimate: %+v vs %+v", cv.Utility, plain.Utility)
	}
}

// pairedLog runs a paired estimation and returns the per-run event log.
func pairedLog(t *testing.T, adv sim.Adversary, master int64, offset, runs int, seed int64, par int) []core.Event {
	t.Helper()
	log := make([]core.Event, runs)
	_, err := core.EstimateUtility(twoparty.New(twoparty.Swap()), adv, core.StandardPayoff(),
		uniform2, runs, seed,
		core.WithPairedSeeds(master), core.WithPairedOffset(offset),
		core.WithEventLog(log), core.WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestPairedSeedsIndependentOfSeedAndParallelism: under CRN pairing,
// run i's coins are a function of (master, offset+i) alone — the
// estimation's own seed and worker count must not move a single event.
func TestPairedSeedsIndependentOfSeedAndParallelism(t *testing.T) {
	const master, runs = 99, 200
	base := pairedLog(t, adversary.NewAbortAt(2, 1), master, 0, runs, 1, 1)
	otherSeed := pairedLog(t, adversary.NewAbortAt(2, 1), master, 0, runs, 12345, 1)
	parallel := pairedLog(t, adversary.NewAbortAt(2, 1), master, 0, runs, 777, 4)
	for i := range base {
		if base[i] != otherSeed[i] || base[i] != parallel[i] {
			t.Fatalf("run %d: events %v / %v / %v diverge across seed and parallelism", i, base[i], otherSeed[i], parallel[i])
		}
	}
}

// TestPairedOffsetSplitInvariance: two estimations covering [0,30) and
// [30,60) of the master stream must reproduce one estimation over
// [0,60) run for run — the property the search engine's growing waves
// rely on to extend an arm's sample without replaying its prefix.
func TestPairedOffsetSplitInvariance(t *testing.T) {
	const master = 4242
	whole := pairedLog(t, adversary.NewAbortAt(1, 1), master, 0, 60, 1, 1)
	head := pairedLog(t, adversary.NewAbortAt(1, 1), master, 0, 30, 2, 1)
	tail := pairedLog(t, adversary.NewAbortAt(1, 1), master, 30, 30, 3, 1)
	for i := 0; i < 30; i++ {
		if whole[i] != head[i] {
			t.Fatalf("run %d: %v != head %v", i, whole[i], head[i])
		}
		if whole[30+i] != tail[i] {
			t.Fatalf("run %d: %v != tail %v", 30+i, whole[30+i], tail[i])
		}
	}
}

// TestEventLogTooShort: a log with fewer slots than runs must be
// rejected eagerly, not written out of bounds.
func TestEventLogTooShort(t *testing.T) {
	log := make([]core.Event, 5)
	_, err := core.EstimateUtility(twoparty.New(twoparty.Swap()), adversary.NewAbortAt(1, 1),
		core.StandardPayoff(), uniform2, 10, 1, core.WithEventLog(log))
	if err == nil {
		t.Fatal("expected an error for a short event log")
	}
}

// TestPairedRunSeed pins the CRN seed derivation's basic properties:
// deterministic, non-negative (a rand seed), and index-sensitive.
func TestPairedRunSeed(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := core.PairedRunSeed(7, i)
		if s < 0 {
			t.Fatalf("PairedRunSeed(7, %d) = %d, want non-negative", i, s)
		}
		if s != core.PairedRunSeed(7, i) {
			t.Fatalf("PairedRunSeed(7, %d) not deterministic", i)
		}
		if seen[s] {
			t.Fatalf("PairedRunSeed(7, %d) = %d collides within the first 100 indices", i, s)
		}
		seen[s] = true
	}
	if core.PairedRunSeed(1, 0) == core.PairedRunSeed(2, 0) {
		t.Error("different masters must give different run seeds")
	}
}

// floorTargetHW is the half-width every runs-to-target search drives to.
const floorTargetHW = 0.01

// runsToTarget finds the smallest run count (up to a doubling cap) whose
// measured half-width reaches target: geometric growth to bracket, then
// bisection. Monte-Carlo half-widths are only statistically monotone in
// the run count, so the result is a representative cost, not a sharp
// minimum — which is exactly what a savings ratio needs.
func runsToTarget(target float64, measure func(runs int) (float64, error)) (int, error) {
	const cap = 1 << 21
	lo, hi := 0, 16
	for {
		hw, err := measure(hi)
		if err != nil {
			return 0, err
		}
		if hw <= target {
			break
		}
		if hi >= cap {
			return 0, fmt.Errorf("half-width %g still above target %g at %d runs", hw, target, hi)
		}
		lo = hi
		hi *= 2
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		hw, err := measure(mid)
		if err != nil {
			return 0, err
		}
		if hw <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// TestControlVariateRunsFloor: on the Gordon–Katz first-hit cell at the
// paper's payoff, the exact-residual control variate must reach the
// 0.01 half-width in at least 3× fewer runs than the plain estimator.
// The residual is identically zero there, so the measured ratio is in
// the thousands; the floor only catches a lever that stopped working.
func TestControlVariateRunsFloor(t *testing.T) {
	const seed, floor = 1, 3.0
	proto, err := gordonkatz.NewPolyDomain(gordonkatz.AND(), 4)
	if err != nil {
		t.Fatal(err)
	}
	gamma := core.GordonKatzPayoff()
	cv := core.GKFirstHitControl(gamma, proto.NumRounds()/2, 0.5)
	measure := func(extra ...core.Option) func(runs int) (float64, error) {
		return func(runs int) (float64, error) {
			r, err := core.EstimateUtility(proto, gordonkatz.NewFirstHit(1), gamma,
				core.FixedInputs(uint64(1), uint64(1)), runs, seed, extra...)
			if err != nil {
				return 0, err
			}
			return r.Utility.HalfWidth, nil
		}
	}
	plain, err := runsToTarget(floorTargetHW, measure())
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	reduced, err := runsToTarget(floorTargetHW, measure(core.WithControlVariate(cv)))
	if err != nil {
		t.Fatalf("control variate: %v", err)
	}
	ratio := float64(plain) / float64(reduced)
	t.Logf("plain %d runs, control variate %d runs: %.1fx", plain, reduced, ratio)
	if ratio < floor {
		t.Errorf("control variate saves %.2fx runs (%d vs %d), below the %gx floor", ratio, plain, reduced, floor)
	}
}

// TestPairedDeltaRunsFloor: certifying the delta between abort-at-1 and
// abort-at-2 on ΠOpt-2SFE with stats.PairedEstimateZ must need at least
// 1.5× fewer runs per side when both estimations share a CRN master
// than when they are seeded independently. Both sides use the same
// per-run difference estimator, so the ratio isolates what seed pairing
// buys.
func TestPairedDeltaRunsFloor(t *testing.T) {
	const seed, floor = 1, 1.5
	proto := twoparty.New(twoparty.Swap())
	gamma := core.StandardPayoff()
	z := stats.ZQuantile(0.05)
	master := int64(uint64(seed)*0x9e3779b9 | 1)
	measure := func(paired bool) func(runs int) (float64, error) {
		return func(runs int) (float64, error) {
			logA := make([]core.Event, runs)
			logB := make([]core.Event, runs)
			optsA := []core.Option{core.WithEventLog(logA)}
			optsB := []core.Option{core.WithEventLog(logB)}
			if paired {
				optsA = append(optsA, core.WithPairedSeeds(master))
				optsB = append(optsB, core.WithPairedSeeds(master))
			}
			if _, err := core.EstimateUtility(proto, adversary.NewAbortAt(1, 1), gamma,
				uniform2, runs, seed, optsA...); err != nil {
				return 0, err
			}
			if _, err := core.EstimateUtility(proto, adversary.NewAbortAt(2, 1), gamma,
				uniform2, runs, seed+7919, optsB...); err != nil {
				return 0, err
			}
			va := make([]float64, runs)
			vb := make([]float64, runs)
			for i := 0; i < runs; i++ {
				va[i] = gamma.Of(logA[i])
				vb[i] = gamma.Of(logB[i])
			}
			est, err := stats.PairedEstimateZ(va, vb, z)
			if err != nil {
				return 0, err
			}
			return est.HalfWidth, nil
		}
	}
	unpaired, err := runsToTarget(floorTargetHW, measure(false))
	if err != nil {
		t.Fatalf("unpaired: %v", err)
	}
	paired, err := runsToTarget(floorTargetHW, measure(true))
	if err != nil {
		t.Fatalf("paired: %v", err)
	}
	ratio := float64(unpaired) / float64(paired)
	t.Logf("unpaired %d runs, paired %d runs: %.1fx", unpaired, paired, ratio)
	if ratio < floor {
		t.Errorf("CRN pairing saves %.2fx runs (%d vs %d), below the %gx floor", ratio, unpaired, paired, floor)
	}
}
