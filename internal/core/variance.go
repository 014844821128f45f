package core

// This file holds the estimator's variance-reduction surface: control
// variates with an exactly known mean (residual estimation) and common-
// random-numbers run seeding. Unlike every other Option, the statistical
// options here deliberately change what the estimator computes — they
// are all off by default, and with all of them off EstimateUtility's
// output is byte-identical to the frozen contract. See DESIGN.md §10.

import "hash/fnv"

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

// WithPairedSeeds switches the estimator's per-run streams to common
// random numbers: run i's inputs and simulation seed derive from a
// per-run generator seeded by an FNV-1a mix of master and the global
// run index (offset + i, see WithPairedOffset) instead of the single
// sequential stream seeded by the estimation's own seed. Two
// estimations sharing a master therefore execute run i on identical
// coins no matter which cell, arm, or seed they belong to, so their
// per-run outcomes pair for stats.PairedEstimate. This changes the coin
// sequences (not the distribution): a paired estimate is not
// byte-comparable to an unpaired one.
func WithPairedSeeds(master int64) Option {
	return func(o *options) { o.paired, o.pairedMaster = true, master }
}

// WithPairedOffset shifts the global run index of a paired estimation's
// first run (default 0): run i uses index offset + i of the master
// stream. Sequential estimations that together form one logical sample
// (the search engine's growing waves) pass their cumulative run count
// so re-estimating at a larger count replays the same prefix. Without
// WithPairedSeeds the offset is ignored.
func WithPairedOffset(offset int) Option {
	return func(o *options) { o.pairedOffset = offset }
}

// WithEventLog records run i's classified event into log[i]. The log
// must have length ≥ runs; each run writes only its own index, so one
// estimation's writes never race. Combined with WithPairedSeeds, two
// cells' logs give the per-run outcome pairs that
// stats.PairedEstimate turns into a narrow delta interval. The log
// never affects the estimate.
func WithEventLog(log []Event) Option {
	return func(o *options) { o.eventLog = log }
}

// PairedRunSeed derives the seed of global run index idx from a CRN
// master: FNV-1a over the master's eight bytes then the index's eight
// bytes, masked to a non-negative int64. It is exported so layers that
// replay individual runs (checkpoint resume, debugging) can reproduce a
// paired estimation's exact coin sequence.
func PairedRunSeed(master int64, idx int) int64 {
	h := fnv.New64a()
	var buf [16]byte
	v := uint64(master)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	w := uint64(idx)
	for i := 0; i < 8; i++ {
		buf[8+i] = byte(w >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64() &^ (1 << 63))
}
