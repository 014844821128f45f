package sim_test

// Arena-parity tests: a reused Arena must produce traces
// reflect.DeepEqual-identical to one-shot sim.Run for every protocol ×
// adversary pair the experiment harness exercises, regardless of what
// ran on the arena before — including runs that drew more randomness
// than the arena's RNG slabs had pre-drawn, and runs that failed. This
// is the reuse half of the estimator's determinism contract (the
// frozen-legacy half is parity_test.go).

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

func TestArenaMatchesRun(t *testing.T) {
	for _, tc := range parityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			proto, inputs, err := tc.proto()
			if err != nil {
				t.Fatal(err)
			}
			arena := sim.NewArena(proto)
			// One adversary instance across every arena run — exactly how
			// the estimator drives it (Reset per run); the reference run
			// gets a fresh instance each time.
			adv := tc.newAdv()
			for seed := int64(0); seed < 12; seed++ {
				got, gotErr := arena.Run(inputs, adv, seed)
				want, wantErr := sim.Run(proto, inputs, tc.newAdv(), seed)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d: run err %v, arena err %v", seed, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: traces diverge\nrun:   %+v\narena: %+v", seed, want, got)
				}
			}
		})
	}
}

// TestPlanRunnerMatchesArena pins the Arena's slab sizing against a cold
// engine on every parity pair: one long-lived Arena, whose streams are
// first sized by a probe run at a far seed and then by every run it
// serves, must return the traces and observer Metrics of a fresh
// sim.RunObserved at every seed, negative seeds included. The name is
// kept from the compiled plan runner, whose pre-sized streams the
// Arena's high-water sizing replaced.
func TestPlanRunnerMatchesArena(t *testing.T) {
	seeds := []int64{1 << 40}
	for seed := int64(-3); seed < 12; seed++ {
		seeds = append(seeds, seed)
	}
	for _, tc := range parityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			proto, inputs, err := tc.proto()
			if err != nil {
				t.Fatal(err)
			}
			arena := sim.NewArena(proto)
			adv := tc.newAdv()
			for _, seed := range seeds {
				var gotM, wantM sim.Metrics
				got, gotErr := arena.Run(inputs, adv, seed, &gotM)
				want, wantErr := sim.RunObserved(proto, inputs, tc.newAdv(), seed, &wantM)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d: run err %v, arena err %v", seed, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: traces diverge\nrun:   %+v\narena: %+v", seed, want, got)
				}
				if wantM != gotM {
					t.Fatalf("seed %d: metrics diverge\nrun:   %+v\narena: %+v", seed, wantM, gotM)
				}
			}
		})
	}
}

// hungryAdv draws a run-dependent amount of adversary-stream randomness
// per run, so the arena's adversary stream keeps drawing past the slab
// that earlier runs sized: the mid-run fallback to a full seed, then an
// eager full seed once a run has drawn past rng.MaxPrefix. It corrupts
// party 1 and substitutes its input with the last value drawn, so the
// trace shows the drawn values.
type hungryAdv struct {
	sim.Passive
	draws func(run int64) int
	n     int64
	last  uint64
}

func (h *hungryAdv) Reset(ctx *sim.AdvContext) {
	h.n++
	h.last = 0
	for i := h.draws(h.n); i > 0; i-- {
		h.last = uint64(ctx.RNG.Intn(256))
	}
}

func (h *hungryAdv) InitialCorruptions() []sim.PartyID { return []sim.PartyID{1} }

func (h *hungryAdv) SubstituteInput(sim.PartyID, sim.Value) sim.Value { return h.last }

func (h *hungryAdv) CloneAdversary() sim.Adversary { return &hungryAdv{draws: h.draws} }

func TestArenaOverdraw(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	inputs := []sim.Value{uint64(111), uint64(222)}
	draws := func(run int64) int { return int(run%7) * 97 }
	arena := sim.NewArena(proto)
	// Both instances count their runs, so run k draws the same amount on
	// either side; only the reference gets a fresh engine per run.
	arenaAdv := &hungryAdv{draws: draws}
	refAdv := &hungryAdv{draws: draws}
	for seed := int64(0); seed < 30; seed++ {
		got, err := arena.Run(inputs, arenaAdv, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(proto, inputs, refAdv, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: traces diverge under overdraw", seed)
		}
	}
}

// TestArenaErrorsMatchRun pins that an arena run fails exactly as a
// fresh run fails — same error, no partial state leaking into the next
// run on the arena.
func TestArenaErrorsMatchRun(t *testing.T) {
	proto := twoparty.New(twoparty.Function{
		Name: "sometimes-out-of-range",
		Eval: func(x1, x2 uint64) uint64 {
			if x1 == 13 {
				return ^uint64(0)
			}
			return x1 + x2
		},
	})
	arena := sim.NewArena(proto)
	adv := adversary.NewLockAbort(1)
	bad := []sim.Value{uint64(13), uint64(2)}
	good := []sim.Value{uint64(5), uint64(9)}
	if _, err := arena.Run(good, adv, 2); err != nil {
		t.Fatal(err)
	}
	_, arenaErr := arena.Run(bad, adv, 3)
	_, runErr := sim.Run(proto, bad, adversary.NewLockAbort(1), 3)
	if arenaErr == nil || runErr == nil || arenaErr.Error() != runErr.Error() {
		t.Fatalf("error mismatch: arena %v, run %v", arenaErr, runErr)
	}
	// The failed run must not poison the next one.
	got, err := arena.Run(good, adv, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(proto, good, adversary.NewLockAbort(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("post-error traces diverge")
	}
}

// TestArenaRunAllocs pins the allocation-lean property the Arena exists
// for: a steady-state ΠOpt-2SFE run stays within a small allocation
// budget (protocol machine construction and sharing included), and with
// millionaires' small inputs and outputs, which box into Value without
// allocating, the engine itself allocates next to nothing.
func TestArenaRunAllocs(t *testing.T) {
	cases := []struct {
		name   string
		fn     twoparty.Function
		budget float64
	}{
		{"swap", twoparty.Swap(), 10},
		{"millionaires", twoparty.Millionaires(), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arena := sim.NewArena(twoparty.New(tc.fn))
			adv := adversary.NewLockAbort(1)
			inputs := []sim.Value{uint64(111), uint64(222)}
			// Warm up past first-run growth (slab sizes, lane capacity).
			for seed := int64(0); seed < 8; seed++ {
				if _, err := arena.Run(inputs, adv, seed); err != nil {
					t.Fatal(err)
				}
			}
			seed := int64(100)
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := arena.Run(inputs, adv, seed); err != nil {
					t.Fatal(err)
				}
				seed++
			})
			if allocs > tc.budget {
				t.Fatalf("arena run allocates %.1f times, budget %g", allocs, tc.budget)
			}
			t.Logf("arena run: %.1f allocs", allocs)
		})
	}
}
