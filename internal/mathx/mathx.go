// Package mathx provides small numeric helpers shared by the fairness
// engine: tolerance-based comparisons standing in for the paper's
// "up to a negligible function" relations, and a float sum.
package mathx

// LessOrApprox reports a <= b + tol, the empirical analogue of the paper's
//
//	a ≤(negl) b.
func LessOrApprox(a, b, tol float64) bool {
	return a <= b+tol
}

// GreaterOrApprox reports a >= b - tol, the empirical analogue of ≥(negl).
func GreaterOrApprox(a, b, tol float64) bool {
	return a >= b-tol
}

// SumFloat returns the sum of the slice.
func SumFloat(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}
