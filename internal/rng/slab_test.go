package rng

import (
	"math/rand"
	"testing"
)

var slabSeeds = []int64{0, 1, -1, 42, -9, 89482311, 1 << 40, -(1 << 40), 7919}

// TestPrefixMatchesSource pins the prefix shortcut against the full
// construction: the first k outputs must be bit-identical for every k
// up to MaxPrefix.
func TestPrefixMatchesSource(t *testing.T) {
	for _, seed := range slabSeeds {
		src := NewSource(seed)
		want := make([]uint64, MaxPrefix)
		for i := range want {
			want[i] = src.Uint64()
		}
		for _, k := range []int{1, 2, 3, 7, 16, 64, MaxPrefix - 1, MaxPrefix} {
			dst := make([]uint64, k)
			Prefix(seed, dst)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("seed %d k %d: Prefix[%d] = %d, Source gives %d", seed, k, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestPrefixTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Prefix(len > MaxPrefix) did not panic")
		}
	}()
	Prefix(1, make([]uint64, MaxPrefix+1))
}

// TestSlabSourceExact drives a SlabSource past its pre-drawn prefix and
// checks the emitted stream stays bit-identical to the canonical source,
// for every want mode (lazy, slab, eager), and again after a reseed,
// whose prefix the high-water mark of the first pass sizes.
func TestSlabSourceExact(t *testing.T) {
	const draws = 3 * MaxPrefix
	for _, want := range []int{0, 1, 5, 64, MaxPrefix, MaxPrefix + 1, 10 * MaxPrefix} {
		for _, seed := range slabSeeds {
			s := new(SlabSource)
			s.SetWant(want)
			for pass := 0; pass < 2; pass++ {
				ref := NewSource(seed)
				s.Seed(seed)
				for i := 0; i < draws; i++ {
					if got, exp := s.Uint64(), ref.Uint64(); got != exp {
						t.Fatalf("want %d seed %d pass %d draw %d: slab %d, source %d", want, seed, pass, i, got, exp)
					}
				}
				if s.served != draws {
					t.Fatalf("served = %d, want %d", s.served, draws)
				}
			}
		}
	}
}

// TestSlabSourceHighWater pins the sizing rule: each Seed pre-draws the
// most any earlier run drew (or the SetWant value, if larger), so a run
// that draws fewer values never shrinks the slab.
func TestSlabSourceHighWater(t *testing.T) {
	s := new(SlabSource)
	s.SetWant(2)
	for _, tc := range []struct{ draw, slab int }{
		{0, 2}, {5, 2}, {1, 5}, {9, 5}, {3, 9}, {0, 9},
	} {
		s.Seed(11)
		if len(s.slab) != tc.slab {
			t.Fatalf("slab = %d, want %d", len(s.slab), tc.slab)
		}
		for i := 0; i < tc.draw; i++ {
			s.Uint64()
		}
	}
	// Past MaxPrefix the full state is built eagerly.
	for i := 0; i <= MaxPrefix; i++ {
		s.Uint64()
	}
	s.Seed(11)
	if !s.live || len(s.slab) != 0 {
		t.Fatalf("after a %d-draw run: live %v, slab %d; want an eager full seed", MaxPrefix+1, s.live, len(s.slab))
	}
}

// TestSlabSourceUnderRand checks the slab source behind *rand.Rand,
// including the Read path (rand.Rand carries read-buffer state that
// Seed must reset) and the derived Intn/Float64 draws the engine uses.
func TestSlabSourceUnderRand(t *testing.T) {
	s := new(SlabSource)
	s.SetWant(8)
	r := rand.New(s)
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

// TestSlabSourceNoAllocSteadyState pins the per-reseed cost: once the
// slab buffer exists, SetWant+Seed+draws must not allocate.
func TestSlabSourceNoAllocSteadyState(t *testing.T) {
	s := new(SlabSource)
	s.SetWant(32)
	s.Seed(1) // warm the slab buffer
	allocs := testing.AllocsPerRun(100, func() {
		s.SetWant(32)
		s.Seed(7)
		for i := 0; i < 32; i++ {
			s.Uint64()
		}
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
	s.SetWant(16)
	s.Seed(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for j := 0; j < 16; j++ {
			s.Uint64()
		}
	}
}
