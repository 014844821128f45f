package core_test

// Engine-level tests for the variance-reduction option: control
// variates (exact-residual estimation). Everything here exercises the
// contract DESIGN.md §10 states: the option changes the estimator, never
// the estimand, and with it off the engine is untouched (the frozen
// byte-identity matrices in internal/sweep and internal/search pin that
// half). TestControlVariateRunsFloor is the lever's CI floor: it must
// keep saving at least a fixed factor of runs on the workload it was
// built for.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
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
