package core

// This file holds the estimator's variance-reduction surface: control
// variates with an exactly known mean (residual estimation). Unlike
// every other Option, WithControlVariate deliberately changes what the
// estimator computes — it is off by default, and with it off
// EstimateUtility's output is byte-identical to the frozen contract. See
// DESIGN.md §10.

// ControlVariate is a per-run control C with exactly known expectation,
// expressed over the canonical events: a run classified into event E
// contributes EventValue[E-1] to C, and E[C] = Mean holds exactly (an
// analytic law, not an estimate). The estimator then samples only the
// residual payoff γ(E) − C and re-centres the mean by +Mean, so the
// reported utility estimates the same expectation with the residual's
// variance. When the control captures most of the outcome's randomness
// — the Gordon–Katz first-hit law is the motivating case, see
// GKFirstHitControl — the residual variance is near zero and the same
// half-width needs a small fraction of the runs.
type ControlVariate struct {
	// Name labels the control in reports and sweep notes.
	Name string
	// Mean is the control's exact expectation E[C].
	Mean float64
	// EventValue maps each canonical event (index Event−1, E00..E11
	// order) to the control's value on runs classified into it.
	EventValue [4]float64
}

// GKFirstHitControl is the control variate for the Gordon–Katz
// first-hit attacker: C = γ(E10)·1[E10], whose expectation is exactly
// γ(E10)·GKFirstHitExact(iters, h) by the first-hit law. At the paper's
// Gordon–Katz payoff (0, 0, 1, 0) the residual is identically zero, so
// the estimate is exact at any run count; at nearby payoffs the residual
// only carries the payoff's deviation from the γ10 axis.
func GKFirstHitControl(gamma Payoff, iters int, h float64) ControlVariate {
	g10 := gamma.Of(E10)
	return ControlVariate{
		Name: "gk-first-hit",
		Mean: g10 * GKFirstHitExact(iters, h),
		EventValue: [4]float64{
			E10 - 1: g10,
		},
	}
}

// WithControlVariate subtracts the control from every run's payoff and
// re-centres the reported mean by the control's exact expectation. The
// report's Utility then carries the residual's (typically much smaller)
// half-width; event frequencies and all other report fields are
// untouched. Passing a control whose Mean is not the true expectation
// of its EventValue silently biases the estimate — only use controls
// backed by an exact law.
func WithControlVariate(cv ControlVariate) Option {
	return func(o *options) { o.cv = &cv }
}
