package rng

import "math/rand"

// Pre-drawn stream slabs.
//
// A simulated run consumes only a few values from most of its RNG
// streams — for ΠOpt-2SFE that is n+2 master draws, ~10 protocol draws
// and zero adversary/party draws — while Source.Seed pays for all 607
// state words of every stream regardless. The slab source closes that
// gap: it serves the first k outputs of the canonical stream from a
// prefix computed directly, without constructing the rest of the state.
//
// The prefix shortcut follows from the generator's shape. After Seed,
// tap = 0 and feed = rngLen − rngTap, so draw j (0-based) reads
// vec[feed−1−j] and vec[rngLen−1−j] and writes the sum back to the feed
// position. The first written word, vec[feed−1], is not read again until
// the tap wraps around to it at draw rngTap — so the first rngTap
// outputs are pure functions of the 2k initial state words
//
//	out_j = vec0[feed−1−j] + vec0[rngLen−1−j],  j < rngTap,
//
// and each initial word vec0[i] mixes Lehmer stream steps 21+3i..23+3i
// with the cooked table, reachable by one modular exponentiation per
// chain start plus three multiply-mods per word.

// MaxPrefix is the longest output prefix Prefix can serve: the tap
// distance of the lagged-Fibonacci generator. From draw MaxPrefix on,
// outputs depend on previously written state words, which only the full
// Seed construction provides.
const MaxPrefix = rngTap

// lehmerPow returns 48271^e mod 2³¹−1 by square-and-multiply; e is tiny
// (at most ~1842, the warm-up depth of the last state word).
func lehmerPow(e int) uint64 {
	r := uint64(1)
	b := uint64(a1)
	for e > 0 {
		if e&1 == 1 {
			r = r * b % int32max
		}
		b = b * b % int32max
		e >>= 1
	}
	return r
}

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

// chain iterates the three interleaved Lehmer streams that build initial
// state words, starting at word index lo.
type chain struct {
	x1, x2, x3 uint64
	i          int
}

// chainStart[i] is 48271^(21+3i) mod 2³¹−1, the jump to the first
// warm-up step of state word i, so starting a chain costs one
// multiply-mod instead of an exponentiation per stream reseed.
var chainStart = func() (t [rngLen]uint64) {
	x := lehmerPow(21)
	for i := range t {
		t[i] = x
		x = x * a3 % int32max
	}
	return t
}()

func newChain(seed int64, lo int) chain {
	x1 := normSeed(seed) * chainStart[lo] % int32max
	x2 := x1 * a1 % int32max
	x3 := x2 * a1 % int32max
	return chain{x1: x1, x2: x2, x3: x3, i: lo}
}

// next returns initial state word vec0[c.i] and advances the chain.
func (c *chain) next() int64 {
	w := (int64(c.x1)<<40 ^ int64(c.x2)<<20 ^ int64(c.x3)) ^ cooked[c.i]
	c.x1 = c.x1 * a3 % int32max
	c.x2 = c.x2 * a3 % int32max
	c.x3 = c.x3 * a3 % int32max
	c.i++
	return w
}

// Prefix fills dst with the first len(dst) outputs of the stream
// NewSource(seed).Uint64 would produce, computing only the 2·len(dst)
// state words those outputs touch. len(dst) must not exceed MaxPrefix.
func Prefix(seed int64, dst []uint64) {
	k := len(dst)
	if k == 0 {
		return
	}
	if k > MaxPrefix {
		panic("rng: Prefix length exceeds MaxPrefix")
	}
	// Draw j reads vec0[feed0−1−j] and vec0[rngLen−1−j]; walk both ranges
	// upward and fill dst back to front.
	feed := newChain(seed, rngLen-rngTap-k)
	tap := newChain(seed, rngLen-k)
	for j := k - 1; j >= 0; j-- {
		dst[j] = uint64(feed.next() + tap.next())
	}
}

// SlabSource is a rand.Source64 emitting the exact stream of
// NewSource(seed), built for a stream reseeded once per simulated run.
// Seed pre-draws only the expected prefix instead of constructing the
// full 607-word state: a stream reseeded but never drawn costs nothing,
// and a stream drawing k ≤ MaxPrefix values costs O(k). The expected
// prefix is the high-water mark of the draws served between earlier
// reseeds (raised, never lowered, by each Seed), or SetWant's value if
// that is larger. A draw past the pre-drawn prefix transparently falls
// back to the full construction and discards the already-served
// outputs, so the emitted stream is bit-identical to the canonical
// source no matter how well the prefix was sized.
//
// The zero SlabSource is ready to use: unseeded, expecting no draws. A
// SlabSource is not safe for concurrent use.
type SlabSource struct {
	seed   int64
	want   int
	served int
	slab   []uint64
	live   bool // full holds the stream state, positioned at served
	full   Source
}

var _ rand.Source64 = (*SlabSource)(nil)

// SetWant sets how many outputs the next Seed pre-draws, for a caller
// that knows its consumption up front: w ≤ 0 defers all state
// construction to the first draw, 0 < w ≤ MaxPrefix pre-draws exactly w
// outputs, and w > MaxPrefix seeds the full generator eagerly (the
// prefix shortcut cannot reach past MaxPrefix). A later Seed still
// raises it to the draws served since the previous Seed.
func (s *SlabSource) SetWant(w int) { s.want = w }

// Seed resets the stream to the state NewSource(seed) starts in,
// pre-drawing the expected prefix: the draw high-water mark (see
// SlabSource). It reuses the receiver's buffers.
func (s *SlabSource) Seed(seed int64) {
	if s.served > s.want {
		s.want = s.served
	}
	s.seed = seed
	s.served = 0
	s.live = false
	switch {
	case s.want > MaxPrefix:
		s.full.Seed(seed)
		s.live = true
		s.slab = s.slab[:0]
	case s.want > 0:
		if cap(s.slab) < s.want {
			s.slab = make([]uint64, s.want)
		}
		s.slab = s.slab[:s.want]
		Prefix(seed, s.slab)
	default:
		s.slab = s.slab[:0]
	}
}

// Uint64 returns the next stream value.
func (s *SlabSource) Uint64() uint64 {
	if s.served < len(s.slab) {
		v := s.slab[s.served]
		s.served++
		return v
	}
	if !s.live {
		// Slab exhausted (or never drawn): materialize the full state and
		// skip what the slab already served.
		s.full.Seed(s.seed)
		for i := 0; i < s.served; i++ {
			s.full.Uint64()
		}
		s.live = true
	}
	s.served++
	return s.full.Uint64()
}

// Int63 returns a non-negative 63-bit value.
func (s *SlabSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
