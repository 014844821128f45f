package commitment

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCommitVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msg := []byte("signed contract v1")
	c, o, err := Commit(rng, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(c, o) {
		t.Error("honest opening rejected")
	}
}

func TestCommitVerifyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(msg []byte) bool {
		c, o, err := Commit(rng, msg)
		return err == nil && Verify(c, o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBindingMessageChange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, o, err := Commit(rng, []byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	o.Message = []byte("forged")
	if Verify(c, o) {
		t.Error("opening with different message accepted")
	}
}

func TestBindingRandomnessChange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, o, err := Commit(rng, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	o.Randomness = append([]byte(nil), o.Randomness...)
	o.Randomness[0] ^= 1
	if Verify(c, o) {
		t.Error("opening with different randomness accepted")
	}
}

func TestVerifyBadOpeningLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, o, err := Commit(rng, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	o.Randomness = o.Randomness[:16]
	if Verify(c, o) {
		t.Error("short opening accepted")
	}
}

func TestHidingDistinctMessagesDistinctCommitments(t *testing.T) {
	// Fresh randomness means even equal messages yield distinct commitments.
	rng := rand.New(rand.NewSource(6))
	c1, _, err := Commit(rng, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := Commit(rng, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1, c2) {
		t.Error("two commitments to same message equal — randomness not used")
	}
}

func TestCommitCopiesMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msg := []byte("mutate me")
	c, o, err := Commit(rng, msg)
	if err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X' // caller mutates their buffer
	if !Verify(c, o) {
		t.Error("opening invalidated by caller mutation — message not copied")
	}
}

func TestCommitEmptyMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, o, err := Commit(rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(c, o) {
		t.Error("empty-message commitment rejected")
	}
}

func TestCommitRandomnessError(t *testing.T) {
	if _, _, err := Commit(bytes.NewReader(nil), []byte("m")); err == nil {
		t.Error("Commit with empty randomness source should fail")
	}
}

func BenchmarkCommit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	msg := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Commit(rng, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCommitIntoMatchesCommit(t *testing.T) {
	for _, msg := range [][]byte{nil, []byte("x"), []byte("eight by"), bytes.Repeat([]byte("long"), 40)} {
		c, o, err := Commit(rand.New(rand.NewSource(8)), msg)
		if err != nil {
			t.Fatal(err)
		}
		// Reuse buffers that already hold another commitment.
		var c2 Commitment
		var o2 Opening
		if err := CommitInto(rand.New(rand.NewSource(9)), []byte("previous"), &c2, &o2); err != nil {
			t.Fatal(err)
		}
		if err := CommitInto(rand.New(rand.NewSource(8)), msg, &c2, &o2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c, c2) || !bytes.Equal(o.Randomness, o2.Randomness) || !bytes.Equal(o.Message, o2.Message) {
			t.Fatalf("CommitInto(%q) differs from Commit", msg)
		}
		if !Verify(c2, o2) {
			t.Fatalf("CommitInto(%q) opening rejected", msg)
		}
	}
}

func TestCommitIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var c Commitment
	var o Opening
	msg := []byte("contract")
	if err := CommitInto(rng, msg, &c, &o); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := CommitInto(rng, msg, &c, &o); err != nil {
			t.Fatal(err)
		}
		if !Verify(c, o) {
			t.Fatal("opening rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("CommitInto+Verify on reused buffers allocates %.1f times, want 0", allocs)
	}
}
