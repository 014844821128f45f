package adversary_test

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestQuietLookaheadWork pins, as exact per-run means over 500 runs at
// seed 1 on one arena (parallelism 1), the Round calls the lookahead
// clones make: LockAbort's coalition lookaheads and AbortAt's rushed
// ones stop once the clones have gone quiet instead of playing to the
// last round. Static plays no clones. The engine's rounds and honest
// Round calls for the same rows are pinned by sim.TestQuietRunWork.
func TestQuietLookaheadWork(t *testing.T) {
	const runs = 500
	for _, tc := range []struct {
		proto, adv string
		calls      float64
	}{
		{"gk-polyrange:2", "lock-abort:1", 6.12},
		{"gk-polyrange:2", "abort:2:1", 3},
		{"gk-polyrange:2", "static:1", 0},
		{"gk-pitilde", "lock-abort:1", 9.204},
		{"gk-pitilde", "abort:2:1", 3},
		{"gk-pitilde", "static:1", 0},
		{"2sfe-opt", "lock-abort:1", 5.968},
	} {
		t.Run(tc.proto+"/"+tc.adv, func(t *testing.T) {
			proto, sampler, err := service.BuildProtocol(tc.proto)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := service.BuildAdversary(tc.adv, proto.NumParties())
			if err != nil {
				t.Fatal(err)
			}
			arena := sim.NewArena(proto)
			master := rand.New(rand.NewSource(1))
			for i := 0; i < runs; i++ {
				if _, err := arena.Run(sampler(master), adv, master.Int63()); err != nil {
					t.Fatal(err)
				}
			}
			if got := float64(adversary.LookaheadCalls(adv)) / runs; got != tc.calls {
				t.Errorf("per run: %v lookahead-clone Round calls, want %v", got, tc.calls)
			}
		})
	}
}
