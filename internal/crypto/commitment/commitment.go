// Package commitment implements the hash-based commitment scheme used by
// the contract-signing protocols Π1 and Π2 of the Introduction and by the
// coin-tossing subprotocol of Π2 (Blum coin flipping).
//
// Commit(m; r) = SHA-256(r ‖ m) with a 32-byte random opening r. Hiding
// holds in the random-oracle model (r has full entropy); binding follows
// from collision resistance.
package commitment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
)

// openingLen is the byte length of the random opening value.
const openingLen = 32

// Commitment is the public commitment string.
type Commitment []byte

// Opening is the decommitment: the randomness and the committed message.
type Opening struct {
	Randomness []byte
	Message    []byte
}

// Commit produces a commitment to msg using randomness drawn from r.
func Commit(r io.Reader, msg []byte) (Commitment, Opening, error) {
	var c Commitment
	var o Opening
	if err := CommitInto(r, msg, &c, &o); err != nil {
		return nil, Opening{}, err
	}
	return c, o, nil
}

// CommitInto is Commit writing into caller-owned buffers: the commitment
// into *c and the opening into o's Randomness and Message, reusing their
// capacity. It draws exactly the randomness Commit draws, so the two
// produce the same commitment from identically seeded readers. msg is
// copied, never retained.
func CommitInto(r io.Reader, msg []byte, c *Commitment, o *Opening) error {
	rnd := o.Randomness[:0]
	if cap(rnd) < openingLen {
		rnd = make([]byte, openingLen)
	}
	rnd = rnd[:openingLen]
	if _, err := io.ReadFull(r, rnd); err != nil {
		return fmt.Errorf("commitment: draw randomness: %w", err)
	}
	o.Randomness = rnd
	o.Message = append(o.Message[:0], msg...)
	sum := digest(rnd, o.Message)
	*c = append((*c)[:0], sum[:]...)
	return nil
}

// Verify reports whether the opening matches the commitment.
func Verify(c Commitment, o Opening) bool {
	if len(o.Randomness) != openingLen {
		return false
	}
	sum := digest(o.Randomness, o.Message)
	return bytes.Equal(c, sum[:])
}

// digest hashes rnd ‖ msg. Short messages (every message the contract
// protocols commit to) are concatenated in a stack buffer, so hashing
// allocates nothing.
func digest(rnd, msg []byte) [sha256.Size]byte {
	var buf [2 * openingLen]byte
	b := append(append(buf[:0], rnd...), msg...)
	return sha256.Sum256(b)
}
