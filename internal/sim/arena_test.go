package sim_test

// Arena-parity tests: a reused Arena must produce traces
// reflect.DeepEqual-identical to one-shot sim.Run for every protocol ×
// adversary pair the experiment harness exercises, regardless of what
// ran on the arena before — including runs that drew past the RNG
// streams' on-demand prefix, and runs that failed. This
// is the reuse half of the estimator's determinism contract (the
// frozen-legacy half is parity_test.go).

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

func TestArenaMatchesRun(t *testing.T) {
	// Each case's arena cycles through one instance of each strategy,
	// run by run; a parity case has one. The estimator keeps one arena
	// per worker across every estimate it runs, so the last case
	// alternates the raw two-party space's strategy kinds on one arena.
	type arenaCase struct {
		name   string
		proto  func() (sim.Protocol, []sim.Value, error)
		newAdv []func() sim.Adversary
	}
	var cases []arenaCase
	for _, tc := range parityCases(t) {
		cases = append(cases, arenaCase{tc.name, tc.proto, []func() sim.Adversary{tc.newAdv}})
	}
	cases = append(cases, arenaCase{
		name: "gk-polydomain:2/alternating",
		proto: func() (sim.Protocol, []sim.Value, error) {
			p, err := gordonkatz.NewPolyDomain(gordonkatz.AND(), 2)
			return p, []sim.Value{uint64(1), uint64(1)}, err
		},
		newAdv: []func() sim.Adversary{
			func() sim.Adversary { return adversary.NewAbortAt(3, 1) },
			func() sim.Adversary { return adversary.NewLockAbort(2) },
			func() sim.Adversary {
				return &adversary.InputSubst{Adversary: adversary.NewAbortAt(2, 2), Value: uint64(0)}
			},
			func() sim.Adversary { return gordonkatz.NewFirstHit(1) },
		},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proto, inputs, err := tc.proto()
			if err != nil {
				t.Fatal(err)
			}
			arena := sim.NewArena(proto)
			// One adversary instance per strategy across every arena run —
			// exactly how the estimator drives it (Reset per run); the
			// reference run gets a fresh instance each time.
			advs := make([]sim.Adversary, len(tc.newAdv))
			for i, mk := range tc.newAdv {
				advs[i] = mk()
			}
			for seed := int64(0); seed < 12; seed++ {
				k := int(seed) % len(advs)
				got, gotErr := arena.Run(inputs, advs[k], seed)
				want, wantErr := sim.Run(proto, inputs, tc.newAdv[k](), seed)
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

// TestPlanRunnerMatchesArena pins a warmed Arena against a cold engine
// on every parity pair: one long-lived Arena, which first serves a run
// at a far seed and then every run of the sweep, must return the traces
// and observer Metrics of a fresh sim.Run at every seed,
// negative seeds included. The name is kept from the compiled plan
// runner, whose pre-sized streams the Arena replaced.
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
				want, wantErr := sim.Run(proto, inputs, tc.newAdv(), seed, &wantM)
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
// per run (0 to 582 values), so the arena's adversary stream crosses
// the 273-value on-demand prefix mid-run (the fallback to a full seed),
// starts from an eager full seed after a run that drew past it, and
// returns to on-demand draws after one that did not. It corrupts party
// 1 and substitutes its input with the last value drawn, so the trace
// shows the drawn values.
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
			// Warm up past first-run growth (lane and buffer capacity).
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
