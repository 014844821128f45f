package stats

// This file holds the paired-difference (common random numbers)
// estimator: it reduces the half-width of a certified comparison without
// touching its mean's correctness — see DESIGN.md §10 for when the lever
// is sound.

import (
	"fmt"
	"math"
)

// PairedEstimate estimates E[a − b] from paired samples: a[i] and b[i]
// must come from the same coin sequence (common random numbers), so the
// per-pair differences d_i = a_i − b_i are i.i.d. and their sample
// variance — typically far below var(a) + var(b) when the pairing
// correlates the runs — drives the confidence interval. The interval is
// the 95% normal approximation, matching MeanEstimate's convention; use
// PairedEstimateZ for an explicit union-bound quantile.
//
// Degenerate cases follow the package's rules: zero pairs is
// ErrNoSamples, one pair has half-width +Inf, and a self-paired input
// (b aliasing a's values) gives exactly mean 0 with half-width 0 for
// n ≥ 2 — certainty is honest there, every difference is identically 0.
func PairedEstimate(a, b []float64) (Estimate, error) {
	return PairedEstimateZ(a, b, 1.96)
}

// PairedEstimateZ is PairedEstimate with an explicit normal quantile z
// (see ZQuantile), so sweep and search layers can widen paired deltas to
// their union-bound budgets: half-width z · s_d/√n.
func PairedEstimateZ(a, b []float64, z float64) (Estimate, error) {
	if len(a) != len(b) {
		return Estimate{}, fmt.Errorf("stats: %d paired samples against %d", len(a), len(b))
	}
	n := len(a)
	if n == 0 {
		return Estimate{}, ErrNoSamples
	}
	var sum float64
	for i := range a {
		sum += a[i] - b[i]
	}
	mean := sum / float64(n)
	if n == 1 {
		return Estimate{Mean: mean, HalfWidth: math.Inf(1), N: 1}, nil
	}
	var ss float64
	for i := range a {
		d := (a[i] - b[i]) - mean
		ss += d * d
	}
	variance := ss / float64(n-1)
	hw := z * math.Sqrt(variance/float64(n))
	return Estimate{Mean: mean, HalfWidth: hw, N: int64(n)}, nil
}
