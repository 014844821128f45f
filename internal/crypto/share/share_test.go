package share

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func TestAdditiveShareReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 5, 10} {
		secret := field.New(rng.Uint64())
		shares, err := AdditiveShare(rng, secret, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != n {
			t.Fatalf("got %d shares, want %d", len(shares), n)
		}
		if got := AdditiveReconstruct(shares); got != secret {
			t.Errorf("n=%d: reconstruct = %v, want %v", n, got, secret)
		}
	}
}

func TestAdditiveShareQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(s uint64) bool {
		secret := field.New(s)
		shares, err := AdditiveShare(rng, secret, 4)
		return err == nil && AdditiveReconstruct(shares) == secret
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdditiveShareTooFew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := AdditiveShare(rng, field.One, 1); err != ErrBadShareCount {
		t.Errorf("n=1: err = %v, want ErrBadShareCount", err)
	}
}

func TestAdditivePrivacy(t *testing.T) {
	// Missing one summand, the rest are uniform: two sharings of very
	// different secrets should produce statistically similar partial views.
	// We check a necessary condition: a single summand of secret 0 and of
	// secret 1 are both ~uniform (their low bit is ~50/50).
	rng := rand.New(rand.NewSource(4))
	const trials = 2000
	ones := 0
	for i := 0; i < trials; i++ {
		shares, err := AdditiveShare(rng, field.Zero, 2)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(shares[0])&1 == 1 {
			ones++
		}
	}
	if ones < trials*40/100 || ones > trials*60/100 {
		t.Errorf("share low bit biased: %d/%d ones", ones, trials)
	}
}

func TestAuthDealReconstructBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	secret := field.New(424242)
	s1, s2, err := AuthDeal(rng, secret)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct toward p1 using p2's opening.
	got1, err := AuthReconstruct(s1, s2.Open())
	if err != nil {
		t.Fatalf("reconstruct toward p1: %v", err)
	}
	if got1 != secret {
		t.Errorf("p1 got %v, want %v", got1, secret)
	}
	// And toward p2.
	got2, err := AuthReconstruct(s2, s1.Open())
	if err != nil {
		t.Fatalf("reconstruct toward p2: %v", err)
	}
	if got2 != secret {
		t.Errorf("p2 got %v, want %v", got2, secret)
	}
}

func TestAuthReconstructQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(s uint64) bool {
		secret := field.New(s)
		s1, s2, err := AuthDeal(rng, secret)
		if err != nil {
			return false
		}
		g1, err1 := AuthReconstruct(s1, s2.Open())
		g2, err2 := AuthReconstruct(s2, s1.Open())
		return err1 == nil && err2 == nil && g1 == secret && g2 == secret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAuthReconstructRejectsTamperedSummand(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s1, s2, err := AuthDeal(rng, field.New(5))
	if err != nil {
		t.Fatal(err)
	}
	open := s2.Open()
	open.Summand[0] = open.Summand[0].Add(field.One)
	if _, err := AuthReconstruct(s1, open); !errors.Is(err, ErrInvalidShare) {
		t.Errorf("tampered summand: err = %v, want ErrInvalidShare", err)
	}
}

func TestAuthReconstructRejectsTamperedTag(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s1, s2, err := AuthDeal(rng, field.New(5))
	if err != nil {
		t.Fatal(err)
	}
	open := s2.Open()
	open.Tags[1] = open.Tags[1].Add(field.One)
	if _, err := AuthReconstruct(s1, open); !errors.Is(err, ErrInvalidShare) {
		t.Errorf("tampered tag: err = %v, want ErrInvalidShare", err)
	}
}

func TestAuthReconstructRejectsForeignShare(t *testing.T) {
	// A share from a different dealing (different keys) must be rejected.
	rng := rand.New(rand.NewSource(11))
	s1, _, err := AuthDeal(rng, field.New(5))
	if err != nil {
		t.Fatal(err)
	}
	_, other2, err := AuthDeal(rng, field.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuthReconstruct(s1, other2.Open()); err == nil {
		t.Error("foreign share accepted")
	}
}

func TestAuthReconstructBadIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s1, s2, err := AuthDeal(rng, field.New(5))
	if err != nil {
		t.Fatal(err)
	}
	s1.Index = 3
	if _, err := AuthReconstruct(s1, s2.Open()); err == nil {
		t.Error("bad index accepted")
	}
}

func TestAuthSharePrivacy(t *testing.T) {
	// A single share alone must not determine the secret: share of 0 and
	// share of 1 should have uniform-looking summands.
	rng := rand.New(rand.NewSource(13))
	const trials = 1000
	ones := 0
	for i := 0; i < trials; i++ {
		s1, _, err := AuthDeal(rng, field.Zero)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(s1.Summand[0])&1 == 1 {
			ones++
		}
	}
	if ones < trials*40/100 || ones > trials*60/100 {
		t.Errorf("auth share summand biased: %d/%d", ones, trials)
	}
}

func TestShamirDealReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct{ tt, n int }{{1, 1}, {2, 3}, {3, 5}, {5, 9}} {
		secret := field.New(rng.Uint64())
		shares, err := ShamirDeal(rng, secret, tc.tt, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ShamirReconstruct(shares, tc.tt)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Errorf("t=%d n=%d: got %v want %v", tc.tt, tc.n, got, secret)
		}
		// Any t-subset works: try the last t shares.
		got2, err := ShamirReconstruct(shares[tc.n-tc.tt:], tc.tt)
		if err != nil {
			t.Fatal(err)
		}
		if got2 != secret {
			t.Errorf("t=%d n=%d tail subset: got %v want %v", tc.tt, tc.n, got2, secret)
		}
	}
}

func TestShamirThresholdErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	if _, err := ShamirDeal(rng, field.One, 0, 3); err != ErrThreshold {
		t.Errorf("t=0: %v, want ErrThreshold", err)
	}
	if _, err := ShamirDeal(rng, field.One, 4, 3); err != ErrThreshold {
		t.Errorf("t>n: %v, want ErrThreshold", err)
	}
	if _, err := ShamirReconstruct([]ShamirShare{{X: 1, Y: 1}}, 2); err != ErrTooFewShares {
		t.Errorf("too few: %v, want ErrTooFewShares", err)
	}
}

func TestShamirPrivacyBelowThreshold(t *testing.T) {
	// t-1 shares of secret 0 vs secret 12345: distribution of a fixed
	// share should be uniform either way; check low-bit balance.
	rng := rand.New(rand.NewSource(16))
	const trials = 1000
	for _, secret := range []field.Element{field.Zero, field.New(12345)} {
		ones := 0
		for i := 0; i < trials; i++ {
			shares, err := ShamirDeal(rng, secret, 3, 5)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(shares[0].Y)&1 == 1 {
				ones++
			}
		}
		if ones < trials*40/100 || ones > trials*60/100 {
			t.Errorf("secret %v: share low-bit biased %d/%d", secret, ones, trials)
		}
	}
}

func TestVerifiableDealReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	secret := field.New(777)
	vs, err := VerifiableDeal(rng, secret, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifiableReconstruct(vs.Key, vs.T, vs.Shares)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Errorf("got %v, want %v", got, secret)
	}
}

func TestVerifiableReconstructIgnoresFakeShares(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	secret := field.New(777)
	vs, err := VerifiableDeal(rng, secret, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Adversary announces two fake shares first; they must be filtered.
	fake := VerifiableShare{Share: ShamirShare{X: 1, Y: 999}, Tag: bytes.Repeat([]byte{1}, 32)}
	announced := append([]VerifiableShare{fake, fake}, vs.Shares...)
	got, err := VerifiableReconstruct(vs.Key, vs.T, announced)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Errorf("got %v, want %v (fake shares corrupted reconstruction)", got, secret)
	}
}

func TestVerifiableReconstructRejectsMixedCoordinates(t *testing.T) {
	// A share assembled from coordinates of two different valid shares
	// must fail verification (joint binding).
	rng := rand.New(rand.NewSource(19))
	vs, err := VerifiableDeal(rng, field.New(5), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	mixed := VerifiableShare{
		Share: ShamirShare{X: vs.Shares[0].Share.X, Y: vs.Shares[1].Share.Y},
		Tag:   vs.Shares[0].Tag,
	}
	if VerifyShare(vs.Key, mixed) {
		t.Error("mixed-coordinate share verified")
	}
}

func TestVerifiableReconstructTooFewValid(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	vs, err := VerifiableDeal(rng, field.New(5), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 valid shares announced (< t = 3): reconstruction blocked.
	if _, err := VerifiableReconstruct(vs.Key, vs.T, vs.Shares[:2]); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("err = %v, want ErrTooFewShares", err)
	}
}

func TestVerifiableReconstructDeduplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	secret := field.New(99)
	vs, err := VerifiableDeal(rng, secret, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Same share announced twice does not count as two points.
	announced := []VerifiableShare{vs.Shares[0], vs.Shares[0]}
	if _, err := VerifiableReconstruct(vs.Key, vs.T, announced); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("duplicate shares treated as distinct: err = %v", err)
	}
	announced = append(announced, vs.Shares[1])
	got, err := VerifiableReconstruct(vs.Key, vs.T, announced)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Errorf("got %v, want %v", got, secret)
	}
}

func BenchmarkAuthDeal(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := AuthDeal(rng, field.New(42)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShamirDeal(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ShamirDeal(rng, field.New(42), 5, 9); err != nil {
			b.Fatal(err)
		}
	}
}
