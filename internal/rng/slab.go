package rng

import "math/rand"

// On-demand stream prefixes.
//
// A simulated run consumes only a few values from most of its RNG
// streams — for ΠOpt-2SFE that is n+2 master draws, ~10 protocol draws
// and zero adversary/party draws — while Source.Seed pays for all 607
// state words of every stream regardless. The slab source closes that
// gap: it computes each of the first rngTap outputs of the canonical
// stream when it is drawn, without constructing the state.
//
// The shortcut follows from the generator's shape. After Seed, tap = 0
// and feed = rngLen − rngTap, so draw j (0-based) reads vec[feed−1−j]
// and vec[rngLen−1−j] and writes the sum back to the feed position. The
// first written word, vec[feed−1], is not read again until the tap
// wraps around to it at draw rngTap — so the first rngTap outputs are
// pure functions of two initial state words each
//
//	out_j = vec0[feed−1−j] + vec0[rngLen−1−j],  j < rngTap,
//
// and each initial word vec0[i] mixes Lehmer stream steps 21+3i..23+3i
// with the cooked table: three multiply-mods of the seed against the
// precomputed powers in wordPow.

// wordPow[i] holds 48271^(21+3i+c) mod 2³¹−1 for c = 0, 1, 2: the
// Lehmer steps initial state word i mixes, as powers of the multiplier.
var wordPow = func() (t [rngLen][3]uint64) {
	x := uint64(a21)
	for i := range t {
		t[i] = [3]uint64{x, x * a1 % int32max, x * a2 % int32max}
		x = x * a3 % int32max
	}
	return t
}()

// normSeed maps a seed onto the Lehmer starting point exactly as Seed
// does.
func normSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// word returns initial state word vec0[i] of the stream whose Lehmer
// starting point is x, as Source.Seed builds it.
func word(x uint64, i int) int64 {
	p := &wordPow[i]
	return (int64(x*p[0]%int32max)<<40 ^ int64(x*p[1]%int32max)<<20 ^ int64(x*p[2]%int32max)) ^ cooked[i]
}

// SlabSource is a rand.Source64 emitting the exact stream of
// NewSource(seed), built for a stream reseeded once per simulated run.
// Seed builds no state: each of the first 273 outputs is computed when
// it is drawn, from the two initial state words it sums, so a stream
// reseeded but never drawn costs nothing and a stream drawing k ≤ 273
// values costs O(k). The 274th draw seeds the full generator and skips
// the outputs already served. One bit carries across reseeds: a stream
// whose previous run drew past 273 values seeds the full generator at
// Seed. The emitted stream is bit-identical to the canonical source
// however many values each run draws.
//
// The zero SlabSource is ready to use. A SlabSource is not safe for
// concurrent use.
type SlabSource struct {
	x      uint64 // the seed's Lehmer starting point
	served int
	live   bool // full holds the stream state, positioned at served
	full   Source
}

var _ rand.Source64 = (*SlabSource)(nil)

// Seed resets the stream to the state NewSource(seed) starts in. It
// seeds the full generator only if the previous run drew past the
// on-demand prefix, and reuses the receiver's state array.
func (s *SlabSource) Seed(seed int64) {
	s.live = s.served > rngTap
	s.served = 0
	s.x = normSeed(seed)
	if s.live {
		s.full.Seed(seed)
	}
}

// Uint64 returns the next stream value.
func (s *SlabSource) Uint64() uint64 {
	j := s.served
	s.served++
	if s.live {
		return s.full.Uint64()
	}
	if j < rngTap {
		return uint64(word(s.x, rngLen-rngTap-1-j) + word(s.x, rngLen-1-j))
	}
	// Draw rngTap reads the word draw 0 wrote: build the full state and
	// skip what the prefix already served.
	s.full.Seed(int64(s.x))
	for range j {
		s.full.Uint64()
	}
	s.live = true
	return s.full.Uint64()
}

// Int63 returns a non-negative 63-bit value.
func (s *SlabSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
