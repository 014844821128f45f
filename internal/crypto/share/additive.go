// Package share implements the secret-sharing schemes used throughout the
// fairness protocols:
//
//   - plain additive n-of-n sharing (the summands AuthDealN tags),
//   - the authenticated additive two-out-of-two scheme of Appendix A
//     (used by ΠOpt-2SFE and the Gordon–Katz ShareGen functionality), and
//   - Shamir t-of-n sharing with authenticated reconstruction (the
//     verifiable d(n/2)e-out-of-n sharing behind Π_GMW^{1/2}, Lemma 17).
package share

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/field"
)

// ErrBadShareCount is returned when a sharing is requested for fewer than
// the scheme's minimum number of parties.
var ErrBadShareCount = errors.New("share: need at least 2 shares")

// AdditiveShare splits secret into n uniformly random summands that add to
// the secret. Any n-1 summands are jointly uniform, so the scheme has
// perfect privacy against any proper subset.
func AdditiveShare(r io.Reader, secret field.Element, n int) ([]field.Element, error) {
	if n < 2 {
		return nil, ErrBadShareCount
	}
	shares := make([]field.Element, n)
	acc := field.Zero
	for i := 0; i < n-1; i++ {
		s, err := field.Rand(r)
		if err != nil {
			return nil, fmt.Errorf("share: additive: %w", err)
		}
		shares[i] = s
		acc = acc.Add(s)
	}
	shares[n-1] = secret.Sub(acc)
	return shares, nil
}

// AdditiveReconstruct recombines the summands.
func AdditiveReconstruct(shares []field.Element) field.Element {
	return field.Sum(shares)
}
