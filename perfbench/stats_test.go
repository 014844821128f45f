package main

import "testing"

// TestPercentileRefusesThinTail pins the reporting rule: a percentile
// needs ten samples beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{1000, 0.99, 990, true},
		{100, 0.99, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", 100*c.q, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", 100*c.q, c.n, got, c.want)
		}
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(seq(1000), q); err == nil {
			t.Errorf("percentile accepted q=%g", q)
		}
	}
}

// TestLayerMetricsDeclared checks a traced result always carries the
// full per-layer list, and an undeclared name is an error.
func TestLayerMetricsDeclared(t *testing.T) {
	m, err := layerMetrics(map[string]float64{"trace.overhead": 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(perLayerUnits()) || m["trace.overhead"].Value != 0.01 {
		t.Fatalf("got %d metrics, want %d with trace.overhead set", len(m), len(perLayerUnits()))
	}
	if _, err := layerMetrics(map[string]float64{"no.such.metric": 1}); err == nil {
		t.Fatal("undeclared per-layer metric accepted")
	}
}
