// Package rng provides the estimation engine's random source: a
// math/rand-compatible generator emitting the exact stream of
// rand.NewSource(seed) for every seed, but built for hot reseeding.
//
// The Monte-Carlo estimator derives five fresh streams per simulated run
// (master, protocol, adversary, one per party), and profiling shows the
// stock source spends almost all of that in Seed: the 607-word lagged
// Fibonacci state is warmed up by ~1841 steps of the Lehmer generator
// x' = 48271·x mod (2³¹−1), implemented there with two divisions per
// step and an allocation per source. Source keeps the identical state
// construction — same Lehmer stream, same cooked-table mixing, so the
// output sequence is bit-for-bit the standard library's (pinned by
// TestMatchesMathRand) — but computes each Lehmer step with one 64-bit
// multiply-mod, runs three independent step chains to break the serial
// dependency, and reseeds in place so an arena can reuse one source for
// millions of runs without allocating.
//
// SlabSource, the stream every simulated run draws from, goes further:
// its Seed builds no state at all, and each of the first 273 outputs is
// computed from the seed when it is drawn (see slab.go), so a run pays
// only for the values it reads.
package rng

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime

	// Powers of the Lehmer multiplier mod 2³¹−1, for jumping the warm-up
	// stream: state word i mixes steps 21+3i, 22+3i, 23+3i of the stream,
	// so seeding needs x·a²¹ once and then stride-3 jumps.
	a1  = 48271
	a2  = a1 * a1 % int32max
	a3  = a2 * a1 % int32max
	a6  = a3 * a3 % int32max
	a12 = a6 * a6 % int32max
	a21 = a12 * a6 % int32max * a3 % int32max
)

// Source is an additive lagged-Fibonacci generator over [rngLen]int64
// with taps (273, 607): a drop-in replacement for the value returned by
// rand.NewSource / rand.NewSource64. It implements rand.Source64, so
// rand.New(rng.NewSource(seed)) behaves identically to
// rand.New(rand.NewSource(seed)) for every derived method.
//
// A Source is not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand drawing from a fresh Source: the fast,
// reseedable equivalent of rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Seed resets the generator to the state rand.NewSource(seed) would
// start in. It reuses the receiver's state array, so reseeding performs
// no allocation.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	// The stock seeding runs the Lehmer stream x_k = a^k·seed serially:
	// 20 warm-up steps, then three steps per state word. Jump straight to
	// x_21 and advance three stride-3 chains in lockstep — the chains are
	// independent, so the three multiply-mods per word pipeline instead
	// of serializing.
	x1 := uint64(seed) * a21 % int32max
	x2 := x1 * a1 % int32max
	x3 := x2 * a1 % int32max
	for i := range s.vec {
		s.vec[i] = (int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3)) ^ cooked[i]
		x1 = x1 * a3 % int32max
		x2 = x2 * a3 % int32max
		x3 = x3 * a3 % int32max
	}
}

// Uint64 returns the next value of the additive generator.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
