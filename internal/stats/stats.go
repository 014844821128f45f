// Package stats provides the Monte-Carlo estimation machinery used to
// measure adversarial utilities empirically.
//
// The paper's quantities — Pr[E_ij], u_A(Π, A), the utility sums of
// Definition 5 — are expectations over the coins of the protocol, the
// adversary, and the environment. We estimate them by repeated seeded
// simulation and report confidence intervals so that comparisons against
// the closed-form bounds are statistically meaningful.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoSamples is returned when an estimate is requested with zero samples.
var ErrNoSamples = errors.New("stats: no samples")

// Estimate is the result of a Monte-Carlo estimation: a sample mean with a
// two-sided confidence half-width.
type Estimate struct {
	// Mean is the sample mean.
	Mean float64
	// HalfWidth is the half-width of the confidence interval around Mean.
	HalfWidth float64
	// N is the number of samples. It is an int64 so that streaming tallies
	// reduced through EstimateFromCounts keep their exact totals even on
	// 32-bit builds, where batched counts can exceed MaxInt32.
	N int64
}

// Lo returns the lower end of the confidence interval.
func (e Estimate) Lo() float64 { return e.Mean - e.HalfWidth }

// Hi returns the upper end of the confidence interval.
func (e Estimate) Hi() float64 { return e.Mean + e.HalfWidth }

// String formats the estimate as "mean ± hw (n=N)".
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", e.Mean, e.HalfWidth, e.N)
}

// LeqWithin reports whether the estimate is consistent with mean ≤ bound,
// i.e. the lower confidence end does not exceed the bound by more than
// slack. This is the empirical analogue of the paper's ≤ up to negligible.
func (e Estimate) LeqWithin(bound, slack float64) bool {
	return e.Lo() <= bound+slack
}

// GeqWithin reports whether the estimate is consistent with mean ≥ bound.
func (e Estimate) GeqWithin(bound, slack float64) bool {
	return e.Hi() >= bound-slack
}

// MatchesWithin reports whether bound lies within the confidence interval
// widened by slack on both sides.
func (e Estimate) MatchesWithin(bound, slack float64) bool {
	return e.Lo()-slack <= bound && bound <= e.Hi()+slack
}

// MeanEstimate computes the sample mean with a normal-approximation 95%
// confidence interval (1.96 · s/√n). A single sample carries no variance
// information, so its half-width is +Inf — one run must never certify a
// bound through LeqWithin.
func MeanEstimate(samples []float64) (Estimate, error) {
	n := len(samples)
	if n == 0 {
		return Estimate{}, ErrNoSamples
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(n)
	if n == 1 {
		return Estimate{Mean: mean, HalfWidth: math.Inf(1), N: 1}, nil
	}
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	variance := ss / float64(n-1)
	hw := 1.96 * math.Sqrt(variance/float64(n))
	return Estimate{Mean: mean, HalfWidth: hw, N: int64(n)}, nil
}

// EstimateFromCounts is the streaming-tally form of MeanEstimate: the
// mean and confidence half-width of a sample multiset that takes value
// values[i] with multiplicity counts[i]. Estimation loops that classify
// runs into a few categories (the fairness events E00..E11) accumulate
// plain integer counts per worker — order-independent, so per-worker
// tallies merge into one total by addition — and reduce them here,
// deterministically in index order, instead of materializing a
// per-run sample slice.
//
// When every value (and hence every partial sum of samples) is exactly
// representable — true for dyadic payoff vectors like the paper's
// (0, 0, 1, ½) — the Mean is bit-identical to MeanEstimate over the
// expanded samples in any order. The half-width is evaluated from the
// counts in index order, which can differ from a per-sample summation
// in the last few ulps (floating-point associativity).
func EstimateFromCounts(values []float64, counts []int64) (Estimate, error) {
	if len(values) != len(counts) {
		return Estimate{}, fmt.Errorf("stats: %d values for %d counts", len(values), len(counts))
	}
	var n int64
	for _, c := range counts {
		if c < 0 {
			return Estimate{}, fmt.Errorf("stats: negative count %d", c)
		}
		n += c
	}
	if n == 0 {
		return Estimate{}, ErrNoSamples
	}
	var sum float64
	for i, c := range counts {
		sum += float64(c) * values[i]
	}
	mean := sum / float64(n)
	if n == 1 {
		// One sample: no variance information, never false certainty.
		return Estimate{Mean: mean, HalfWidth: math.Inf(1), N: 1}, nil
	}
	var ss float64
	for i, c := range counts {
		d := values[i] - mean
		ss += float64(c) * (d * d)
	}
	variance := ss / float64(n-1)
	hw := 1.96 * math.Sqrt(variance/float64(n))
	return Estimate{Mean: mean, HalfWidth: hw, N: n}, nil
}

// BernoulliEstimate computes the empirical probability of successes
// successes out of n trials with a Hoeffding-style 95% confidence interval
// (half-width sqrt(ln(2/0.05) / (2n))), which is distribution-free. The
// counts are int64 so streaming tallies keep their exact totals on
// 32-bit builds; untyped int literals still work unchanged.
//
// Out-of-range counts saturate the way WilsonScore clamps its rate: a
// success count below 0 or above n yields the boundary probability (0 or
// 1) instead of a rate outside [0, 1], and n ≤ 0 is ErrNoSamples.
func BernoulliEstimate(successes, n int64) (Estimate, error) {
	if n <= 0 {
		return Estimate{}, ErrNoSamples
	}
	if successes < 0 {
		successes = 0
	}
	if successes > n {
		successes = n
	}
	p := float64(successes) / float64(n)
	hw := HoeffdingHalfWidth(n, 0.05)
	return Estimate{Mean: p, HalfWidth: hw, N: n}, nil
}

// HoeffdingHalfWidth returns the half-width t such that a mean of n
// [0,1]-bounded samples deviates from its expectation by more than t with
// probability at most delta: t = sqrt(ln(2/delta) / (2n)).
//
// Out-of-range deltas saturate like ZQuantile instead of leaking NaN
// into every downstream LeqWithin: delta ≤ 0 (or NaN) demands certainty
// and yields +Inf, delta ≥ 2 demands nothing and yields 0. Every delta
// in (0, 2) — in particular the whole meaningful (0, 1) range — keeps
// the exact closed form, bit for bit.
func HoeffdingHalfWidth(n int64, delta float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	if !(delta > 0) { // also catches NaN
		return math.Inf(1)
	}
	if delta >= 2 {
		return 0
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(n)))
}

// SamplesFor returns the number of [0,1]-bounded samples needed for a
// Hoeffding half-width of at most eps at confidence 1-delta. The sweep
// engine (internal/sweep) uses it for adaptive sampling: per-cell run
// counts are sized to a target half-width instead of a flat count.
//
// The result saturates at MaxInt32: a tiny positive eps (or a
// vanishing delta) yields an astronomically large float count whose
// naive int conversion would overflow the platform int — the search
// engine's union-bound δ′ = δ/#checks reaches that regime at scale —
// so unrepresentable demands clamp instead of wrapping negative.
func SamplesFor(eps, delta float64) int {
	if eps <= 0 {
		return math.MaxInt32
	}
	n := math.Ceil(math.Log(2/delta) / (2 * eps * eps))
	if !(n < math.MaxInt32) { // also catches NaN from a non-positive delta
		return math.MaxInt32
	}
	if n < 1 {
		return 1
	}
	return int(n)
}

// ZQuantile returns the two-sided normal quantile z such that a
// standard normal lies in [−z, z] with probability 1 − delta:
// z = √2 · erfinv(1 − delta). It converts a union-bound per-check
// budget δ′ into the z used by WilsonScore, so elimination decisions
// made many times over a search still hold jointly with probability
// ≥ 1 − δ. Out-of-range deltas saturate: delta ≥ 1 gives 0 (no
// confidence demanded), delta ≤ 0 gives +Inf (certainty demanded).
func ZQuantile(delta float64) float64 {
	if delta >= 1 {
		return 0
	}
	if delta <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(1-delta)
}

// WilsonInterval returns the Wilson score interval for successes/n at
// 95% confidence — tighter than Hoeffding for probabilities near 0 or 1.
// The Gordon–Katz experiments (E11/E12) use it to cross-check the small
// E10 and privacy-breach frequencies, and the sweep engine
// (internal/sweep) uses it to certify measured Pr[E10] against the 1/p
// ceiling.
func WilsonInterval(successes, n int64) (lo, hi float64, err error) {
	if n == 0 {
		return 0, 0, ErrNoSamples
	}
	lo, hi = WilsonScore(float64(successes)/float64(n), n, 1.96)
	return lo, hi, nil
}

// WilsonScore is the generalized Wilson interval: success rate p ∈
// [0, 1] (fractional rates are allowed — a [lo, hi]-bounded utility
// scaled to [0, 1] yields one), sample count n, and an explicit normal
// quantile z (see ZQuantile for deriving z from a union-bound budget).
// The search engine's racing eliminations run on these intervals. All
// arithmetic is in float64 — n only ever enters as float64(n), so
// counts near the int64 boundary neither overflow nor panic; they just
// produce the (correctly tiny) interval. Results are clamped to [0, 1].
func WilsonScore(p float64, n int64, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 || math.IsNaN(lo) {
		lo = 0
	}
	if hi > 1 || math.IsNaN(hi) {
		hi = 1
	}
	return lo, hi
}
