package rng

import (
	"math/rand"
	"testing"
)

var slabSeeds = []int64{0, 1, -1, 42, -9, 89482311, 1 << 40, -(1 << 40), 7919}

// TestPrefixMatchesSource pins the on-demand prefix against the full
// construction: each of the first 273 outputs of a freshly seeded
// SlabSource, computed from two initial state words, is bit-identical
// to NewSource's, and serving them builds no full state.
func TestPrefixMatchesSource(t *testing.T) {
	for _, seed := range slabSeeds {
		ref := NewSource(seed)
		s := new(SlabSource)
		s.Seed(seed)
		for i := 0; i < rngTap; i++ {
			if got, exp := s.Uint64(), ref.Uint64(); got != exp {
				t.Fatalf("seed %d: prefix output %d = %d, source gives %d", seed, i, got, exp)
			}
		}
		if s.live {
			t.Fatalf("seed %d: full state built within the %d-value prefix", seed, rngTap)
		}
	}
}

// TestSlabSourceHighWater pins the one bit a source carries across
// reseeds: Seed builds the full state up front exactly when the previous
// run drew past the 273-value prefix, and a shorter run after that
// returns the next Seed to the on-demand path.
func TestSlabSourceHighWater(t *testing.T) {
	s := new(SlabSource)
	for k, tc := range []struct {
		draw int
		live bool // full state seeded at this run's Seed
	}{
		{0, false}, {5, false}, {rngTap, false}, {rngTap + 1, false},
		{3, true}, {0, false}, {3 * rngTap, false}, {0, true}, {0, false},
	} {
		s.Seed(11)
		if s.live != tc.live {
			t.Fatalf("run %d: full state seeded up front = %v, want %v", k, s.live, tc.live)
		}
		for i := 0; i < tc.draw; i++ {
			s.Uint64()
		}
	}
}

// TestSlabSourceExact drives a SlabSource past its on-demand prefix and
// checks the emitted stream stays bit-identical to the canonical source,
// on the first pass (which builds the full state mid-run) and again
// after a reseed, which seeds the full state up front.
func TestSlabSourceExact(t *testing.T) {
	const draws = 3 * rngTap
	for _, seed := range slabSeeds {
		s := new(SlabSource)
		for pass := 0; pass < 2; pass++ {
			ref := NewSource(seed)
			s.Seed(seed)
			for i := 0; i < draws; i++ {
				if got, exp := s.Uint64(), ref.Uint64(); got != exp {
					t.Fatalf("seed %d pass %d draw %d: slab %d, source %d", seed, pass, i, got, exp)
				}
			}
			if s.served != draws {
				t.Fatalf("served = %d, want %d", s.served, draws)
			}
		}
	}
}

// TestSlabSourceRunLengths replays sequences of runs on one source, each
// run reseeding and drawing a given number of values, and checks every
// output against a fresh NewSource and the one bit a source carries
// across reseeds: a run seeds the full state up front exactly when the
// previous run drew past the 273-value on-demand prefix.
func TestSlabSourceRunLengths(t *testing.T) {
	long := 3 * rngTap
	for _, runs := range [][]int{
		{0}, {1}, {4}, {272}, {273}, {274}, {long},
		{long, 4, 4},           // short after long
		{4, long, 274, 0, 273}, // long after short
	} {
		for _, seed := range slabSeeds {
			s := new(SlabSource)
			prev := 0
			for k, draws := range runs {
				runSeed := seed + int64(k)
				s.Seed(runSeed)
				if want := prev > rngTap; s.live != want {
					t.Fatalf("runs %v seed %d run %d: full state seeded up front = %v after a %d-draw run, want %v",
						runs, seed, k, s.live, prev, want)
				}
				ref := NewSource(runSeed)
				for i := 0; i < draws; i++ {
					if got, exp := s.Uint64(), ref.Uint64(); got != exp {
						t.Fatalf("runs %v seed %d run %d draw %d: slab %d, source %d", runs, seed, k, i, got, exp)
					}
				}
				prev = draws
			}
		}
	}
}

// TestSlabSourceUnderRand checks the slab source behind *rand.Rand,
// including the Read path (rand.Rand carries read-buffer state that
// Seed must reset) and the derived Intn/Float64 draws the engine uses.
func TestSlabSourceUnderRand(t *testing.T) {
	r := rand.New(new(SlabSource))
	for _, seed := range slabSeeds {
		ref := rand.New(NewSource(seed))
		r.Seed(seed)
		buf, refBuf := make([]byte, 13), make([]byte, 13)
		for i := 0; i < 40; i++ {
			switch i % 4 {
			case 0:
				if got, exp := r.Int63(), ref.Int63(); got != exp {
					t.Fatalf("seed %d Int63 #%d: %d != %d", seed, i, got, exp)
				}
			case 1:
				if got, exp := r.Intn(1000), ref.Intn(1000); got != exp {
					t.Fatalf("seed %d Intn #%d: %d != %d", seed, i, got, exp)
				}
			case 2:
				if got, exp := r.Float64(), ref.Float64(); got != exp {
					t.Fatalf("seed %d Float64 #%d: %v != %v", seed, i, got, exp)
				}
			case 3:
				r.Read(buf)
				ref.Read(refBuf)
				for j := range buf {
					if buf[j] != refBuf[j] {
						t.Fatalf("seed %d Read #%d byte %d: %x != %x", seed, i, buf[j], refBuf[j], j)
					}
				}
			}
		}
	}
}

// TestSlabSourceNoAllocSteadyState pins the per-reseed cost: Seed and
// draws, on-demand or past the prefix, must not allocate.
func TestSlabSourceNoAllocSteadyState(t *testing.T) {
	s := new(SlabSource)
	draws := 0
	allocs := testing.AllocsPerRun(100, func() {
		s.Seed(7)
		for i := 0; i < draws; i++ {
			s.Uint64()
		}
		draws = (draws + 97) % 400
	})
	if allocs != 0 {
		t.Fatalf("slab reseed+draw allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkSeedFull(b *testing.B) {
	s := NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkSeedSlab16(b *testing.B) {
	s := new(SlabSource)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for j := 0; j < 16; j++ {
			s.Uint64()
		}
	}
}
