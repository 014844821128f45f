package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestEstimateFromCountsSingle pins the streaming form of the n = 1
// rule: a single tallied sample must report half-width +Inf (no variance
// information), matching MeanEstimate — the old code divided by n−1 = 0
// into a NaN that LeqWithin silently treated as certainty.
func TestEstimateFromCountsSingle(t *testing.T) {
	est, err := EstimateFromCounts([]float64{0, 0, 1, 0.5}, []int64{0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 1 || !math.IsInf(est.HalfWidth, 1) || est.N != 1 {
		t.Errorf("single tallied sample: got %v ± %v (n=%d), want 1 ± +Inf (n=1)",
			est.Mean, est.HalfWidth, est.N)
	}
	if !est.LeqWithin(2, 0) || !est.GeqWithin(0, 0) {
		t.Error("an infinite interval must stay consistent with any bound")
	}
}

// TestCounterZeroValue: the zero Counter must be ready to use — Add
// allocates the category map lazily instead of panicking on a nil map.
func TestCounterZeroValue(t *testing.T) {
	var c Counter
	c.Add("E10")
	c.Add("E10")
	if c.Total() != 2 || c.Count("E10") != 2 {
		t.Errorf("zero-value Counter after two Adds: Total=%d Count=%d, want 2/2",
			c.Total(), c.Count("E10"))
	}
}

// TestHoeffdingHalfWidthSaturation pins the out-of-range delta rules:
// non-positive (and NaN) deltas demand certainty and saturate to +Inf
// instead of leaking NaN through ln(2/δ), delta ≥ 2 demands nothing and
// yields 0, and the meaningful range keeps the exact closed form.
func TestHoeffdingHalfWidthSaturation(t *testing.T) {
	for _, delta := range []float64{0, -1, math.Inf(-1), math.NaN()} {
		if hw := HoeffdingHalfWidth(100, delta); !math.IsInf(hw, 1) {
			t.Errorf("HoeffdingHalfWidth(100, %v) = %v, want +Inf", delta, hw)
		}
	}
	for _, delta := range []float64{2, 3, math.Inf(1)} {
		if hw := HoeffdingHalfWidth(100, delta); hw != 0 {
			t.Errorf("HoeffdingHalfWidth(100, %v) = %v, want 0", delta, hw)
		}
	}
	want := math.Sqrt(math.Log(2/0.05) / 200)
	if hw := HoeffdingHalfWidth(100, 0.05); hw != want {
		t.Errorf("in-range delta must keep the exact closed form: %v != %v", hw, want)
	}
}

// TestBernoulliEstimateClamping: out-of-range success counts saturate to
// the boundary probability instead of reporting a rate outside [0, 1].
func TestBernoulliEstimateClamping(t *testing.T) {
	est, err := BernoulliEstimate(-3, 10)
	if err != nil || est.Mean != 0 {
		t.Errorf("BernoulliEstimate(-3, 10) = %v, %v; want mean 0", est.Mean, err)
	}
	est, err = BernoulliEstimate(15, 10)
	if err != nil || est.Mean != 1 {
		t.Errorf("BernoulliEstimate(15, 10) = %v, %v; want mean 1", est.Mean, err)
	}
	if _, err := BernoulliEstimate(5, -1); err != ErrNoSamples {
		t.Errorf("BernoulliEstimate(5, -1) err = %v, want ErrNoSamples", err)
	}
}

// TestPairedEstimateSelfPaired: pairing a sample against itself gives
// exactly mean 0 with half-width 0 for n ≥ 2 — every difference is
// identically zero, so certainty is honest.
func TestPairedEstimateSelfPaired(t *testing.T) {
	a := []float64{0.3, 1, 0, 0.5, 0.5}
	est, err := PairedEstimate(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 0 || est.HalfWidth != 0 || est.N != int64(len(a)) {
		t.Errorf("self-paired: got %v ± %v (n=%d), want exactly 0 ± 0 (n=%d)",
			est.Mean, est.HalfWidth, est.N, len(a))
	}
}

// TestPairedEstimateDegenerate covers the package's degenerate-sample
// rules for the paired estimator.
func TestPairedEstimateDegenerate(t *testing.T) {
	if _, err := PairedEstimate(nil, nil); err != ErrNoSamples {
		t.Errorf("zero pairs: err = %v, want ErrNoSamples", err)
	}
	if _, err := PairedEstimate([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch: expected error")
	}
	est, err := PairedEstimate([]float64{1}, []float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 0.75 || !math.IsInf(est.HalfWidth, 1) {
		t.Errorf("one pair: got %v ± %v, want 0.75 ± +Inf", est.Mean, est.HalfWidth)
	}
}

// TestPairedEstimateBeatsUnpaired: on strongly correlated samples the
// paired interval must be far narrower than the two-sample comparison —
// the whole point of common random numbers. The unpaired comparator is
// the same estimator over independently drawn samples.
func TestPairedEstimateBeatsUnpaired(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 4000
	a := make([]float64, n)
	b := make([]float64, n)
	ind := make([]float64, n)
	for i := range a {
		x := r.Float64()
		a[i] = x
		b[i] = x + 0.01*r.Float64() // near-perfectly correlated
		ind[i] = r.Float64()        // independent draw of b's marginal-ish law
	}
	paired, err := PairedEstimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	unpaired, err := PairedEstimate(a, ind)
	if err != nil {
		t.Fatal(err)
	}
	if paired.HalfWidth*10 > unpaired.HalfWidth {
		t.Errorf("paired hw %v not ≪ unpaired hw %v", paired.HalfWidth, unpaired.HalfWidth)
	}
}

// TestPairedEstimateZWidens: a larger quantile must scale the half-width
// linearly (the union-bound budgets the sweep and search pass down).
func TestPairedEstimateZWidens(t *testing.T) {
	a := []float64{1, 0, 1, 1, 0, 1}
	b := []float64{0, 0, 1, 0, 1, 1}
	e1, err := PairedEstimateZ(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := PairedEstimateZ(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e3.HalfWidth-3*e1.HalfWidth) > 1e-12 {
		t.Errorf("z=3 hw %v != 3 × z=1 hw %v", e3.HalfWidth, e1.HalfWidth)
	}
	if e1.Mean != e3.Mean {
		t.Errorf("quantile must not move the mean: %v vs %v", e1.Mean, e3.Mean)
	}
}
