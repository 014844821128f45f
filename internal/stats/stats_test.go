package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanEstimateBasic(t *testing.T) {
	est, err := MeanEstimate([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 3 {
		t.Errorf("Mean = %v, want 3", est.Mean)
	}
	if est.N != 5 {
		t.Errorf("N = %d, want 5", est.N)
	}
	if est.HalfWidth <= 0 {
		t.Errorf("HalfWidth = %v, want > 0", est.HalfWidth)
	}
}

func TestMeanEstimateEmpty(t *testing.T) {
	if _, err := MeanEstimate(nil); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestMeanEstimateSingle(t *testing.T) {
	// One sample carries no variance information: the half-width must be
	// +Inf so a 1-run estimate can never certify a bound (the old
	// half-width of 0 claimed an exact answer from a single run).
	est, err := MeanEstimate([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 7 || !math.IsInf(est.HalfWidth, 1) {
		t.Errorf("single sample: got %+v", est)
	}
	if est.LeqWithin(6, 0) != true {
		t.Errorf("an infinite interval must stay consistent with any bound")
	}
}

func TestMeanEstimateConstant(t *testing.T) {
	est, err := MeanEstimate([]float64{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 2 || est.HalfWidth != 0 {
		t.Errorf("constant samples: got %+v", est)
	}
}

func TestMeanEstimateCoversTruth(t *testing.T) {
	// Draw Bernoulli(0.3) samples; the CI should cover 0.3 nearly always.
	rng := rand.New(rand.NewSource(11))
	covered := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		samples := make([]float64, 500)
		for i := range samples {
			if rng.Float64() < 0.3 {
				samples[i] = 1
			}
		}
		est, err := MeanEstimate(samples)
		if err != nil {
			t.Fatal(err)
		}
		if est.Lo() <= 0.3 && 0.3 <= est.Hi() {
			covered++
		}
	}
	if covered < trials*90/100 {
		t.Errorf("95%% CI covered truth only %d/%d times", covered, trials)
	}
}

func TestBernoulliEstimate(t *testing.T) {
	est, err := BernoulliEstimate(30, 100)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 0.3 {
		t.Errorf("Mean = %v, want 0.3", est.Mean)
	}
	if est.HalfWidth <= 0 {
		t.Errorf("HalfWidth = %v, want > 0", est.HalfWidth)
	}
}

func TestBernoulliEstimateEmpty(t *testing.T) {
	if _, err := BernoulliEstimate(0, 0); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestHoeffdingHalfWidth(t *testing.T) {
	hw := HoeffdingHalfWidth(1000, 0.05)
	want := math.Sqrt(math.Log(40) / 2000)
	if math.Abs(hw-want) > 1e-12 {
		t.Errorf("hw = %v, want %v", hw, want)
	}
	if !math.IsInf(HoeffdingHalfWidth(0, 0.05), 1) {
		t.Error("hw(0) should be +Inf")
	}
	// More samples -> tighter interval.
	if HoeffdingHalfWidth(10000, 0.05) >= HoeffdingHalfWidth(100, 0.05) {
		t.Error("Hoeffding half-width should shrink with n")
	}
}

func TestSamplesFor(t *testing.T) {
	n := SamplesFor(0.01, 0.05)
	// The returned n must actually achieve the requested half-width.
	if HoeffdingHalfWidth(int64(n), 0.05) > 0.01+1e-12 {
		t.Errorf("SamplesFor(0.01) = %d gives hw %v > 0.01", n, HoeffdingHalfWidth(int64(n), 0.05))
	}
	if SamplesFor(0, 0.05) != math.MaxInt32 {
		t.Error("SamplesFor(0) should saturate")
	}
}

func TestEstimateComparisons(t *testing.T) {
	e := Estimate{Mean: 0.5, HalfWidth: 0.05, N: 100}
	if !e.LeqWithin(0.5, 0) {
		t.Error("0.5±0.05 should be ≤ 0.5")
	}
	if !e.LeqWithin(0.46, 0) {
		t.Error("lower CI end 0.45 ≤ 0.46 should hold")
	}
	if e.LeqWithin(0.40, 0) {
		t.Error("0.5±0.05 should not be ≤ 0.40")
	}
	if !e.GeqWithin(0.54, 0) {
		t.Error("upper CI end 0.55 ≥ 0.54 should hold")
	}
	if e.GeqWithin(0.60, 0) {
		t.Error("0.5±0.05 should not be ≥ 0.60")
	}
	if !e.MatchesWithin(0.52, 0) {
		t.Error("0.52 lies within [0.45, 0.55]")
	}
	if e.MatchesWithin(0.60, 0) {
		t.Error("0.60 outside [0.45, 0.55]")
	}
	if !e.MatchesWithin(0.60, 0.06) {
		t.Error("0.60 within slack-widened interval")
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Mean: 0.5, HalfWidth: 0.01, N: 42}
	if got := e.String(); got != "0.5000 ± 0.0100 (n=42)" {
		t.Errorf("String() = %q", got)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi, err := WilsonInterval(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0 || hi > 1 || lo >= hi {
		t.Errorf("interval [%v, %v] malformed", lo, hi)
	}
	if 0.05 < lo || 0.05 > hi {
		t.Errorf("point estimate outside interval [%v, %v]", lo, hi)
	}
	// Extreme cases stay in [0, 1] and contain the estimate.
	lo, hi, err = WilsonInterval(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi <= 0 {
		t.Errorf("zero-success interval [%v, %v]", lo, hi)
	}
	lo, hi, err = WilsonInterval(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 || lo >= 1 {
		t.Errorf("all-success interval [%v, %v]", lo, hi)
	}
	if _, _, err := WilsonInterval(0, 0); err != ErrNoSamples {
		t.Errorf("n=0: %v", err)
	}
	// Wilson beats Hoeffding for small p.
	_, hi, err = WilsonInterval(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if width := hi - 0.002; width >= HoeffdingHalfWidth(1000, 0.05) {
		t.Errorf("Wilson width %v not tighter than Hoeffding %v", width, HoeffdingHalfWidth(1000, 0.05))
	}
}

func TestEstimateFromCountsMatchesMeanEstimate(t *testing.T) {
	values := []float64{0, 0, 1, 0.5}
	cases := [][]int64{
		{1, 0, 0, 0},
		{0, 0, 7, 0},
		{3, 1, 4, 1},
		{120, 7, 993, 880},
		{0, 0, 12345, 54321},
	}
	for _, counts := range cases {
		var samples []float64
		for i, c := range counts {
			for j := int64(0); j < c; j++ {
				samples = append(samples, values[i])
			}
		}
		want, err := MeanEstimate(samples)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimateFromCounts(values, counts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean != want.Mean || got.N != want.N {
			t.Fatalf("counts %v: got %+v, want %+v", counts, got, want)
		}
		// Dyadic values: the half-width agrees too, up to associativity.
		if diff := math.Abs(got.HalfWidth - want.HalfWidth); diff > 1e-12 {
			t.Fatalf("counts %v: half-width %v vs %v (diff %v)", counts, got.HalfWidth, want.HalfWidth, diff)
		}
	}
}

// TestEstimateFromCountsPropertyDyadic is the property pin behind the
// batched engine's determinism contract: for dyadic values (every value
// and every partial sum exactly representable) the count-reduced mean is
// bit-identical to MeanEstimate over the expanded sample slice in ANY
// order, the sample counts agree exactly, and the half-width agrees up
// to the documented floating-point-associativity tolerance.
func TestEstimateFromCountsPropertyDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(20150302))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(6)
		values := make([]float64, k)
		for i := range values {
			// m / 2^e with m < 2^10, e ≤ 8: exactly representable, and sums
			// of a few hundred of them stay far below 2^53 ulps of slack.
			m := rng.Intn(1 << 10)
			e := uint(rng.Intn(9))
			values[i] = float64(m) / float64(int64(1)<<e)
		}
		counts := make([]int64, k)
		var total int64
		for i := range counts {
			counts[i] = int64(rng.Intn(60))
			total += counts[i]
		}
		if total == 0 {
			counts[rng.Intn(k)] = 1
			total = 1
		}

		samples := make([]float64, 0, total)
		for i, c := range counts {
			for j := int64(0); j < c; j++ {
				samples = append(samples, values[i])
			}
		}
		// Shuffle: the mean must not depend on sample order.
		rng.Shuffle(len(samples), func(i, j int) {
			samples[i], samples[j] = samples[j], samples[i]
		})

		want, err := MeanEstimate(samples)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimateFromCounts(values, counts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean != want.Mean {
			t.Fatalf("trial %d: mean %v != %v (values %v counts %v)",
				trial, got.Mean, want.Mean, values, counts)
		}
		if got.N != want.N || got.N != total {
			t.Fatalf("trial %d: N %d / %d, want %d", trial, got.N, want.N, total)
		}
		// Half-width: evaluated in different summation orders, so allow a
		// few ulps relative to the magnitude of the sum of squares.
		tol := 1e-12 * math.Max(1, math.Abs(want.HalfWidth))
		if diff := math.Abs(got.HalfWidth - want.HalfWidth); diff > tol {
			t.Fatalf("trial %d: half-width %v vs %v (diff %v > tol %v)",
				trial, got.HalfWidth, want.HalfWidth, diff, tol)
		}
	}
}

// TestEstimateFromCountsLargeTally pins the int64 total: a tally beyond
// MaxInt32 must survive into Estimate.N undamaged on every platform.
func TestEstimateFromCountsLargeTally(t *testing.T) {
	const big = int64(3) << 31 // 6442450944 > MaxInt32
	est, err := EstimateFromCounts([]float64{0, 1}, []int64{big, big})
	if err != nil {
		t.Fatal(err)
	}
	if est.N != 2*big {
		t.Errorf("N = %d, want %d", est.N, 2*big)
	}
	if est.Mean != 0.5 {
		t.Errorf("Mean = %v, want 0.5", est.Mean)
	}
}

func TestEstimateFromCountsErrors(t *testing.T) {
	if _, err := EstimateFromCounts([]float64{1}, []int64{0}); err != ErrNoSamples {
		t.Fatalf("zero counts: err = %v, want ErrNoSamples", err)
	}
	if _, err := EstimateFromCounts([]float64{1, 2}, []int64{1}); err == nil {
		t.Fatal("length mismatch: expected error")
	}
	if _, err := EstimateFromCounts([]float64{1}, []int64{-1}); err == nil {
		t.Fatal("negative count: expected error")
	}
}

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
