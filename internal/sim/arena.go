package sim

// Arena replays many runs of one protocol on a single reused Execution:
// the run engine of the Monte-Carlo estimator and of Run. An Arena
// resets the same Execution for every run — trace maps are cleared,
// inbox lanes and scratch buffers truncated (keeping their capacity),
// and the RNG streams reseeded in place, each computing only the values
// the run draws (see Execution.reset and rng.SlabSource) — so the
// steady-state cost of a run is the protocol's own work.
//
// Determinism: Arena.Run produces a trace reflect.DeepEqual-identical
// to Run(proto, inputs, adv, seed) for every (inputs, adv, seed),
// regardless of what ran on the arena before (pinned by
// TestArenaMatchesRun).
//
// The returned *Trace and everything it references — and the AdvContext
// handed to the adversary, and any inbox slices shown to it — are
// engine-owned and valid only until the next Run call. Extract what you
// need (e.g. core.Classify) before rerunning. Observers receive the
// same live trace in RunFinished; the Observer contract already forbids
// retaining it.
//
// An Arena is not safe for concurrent use: the parallel estimator gives
// each worker its own.
type Arena struct {
	exec *Execution
}

// NewArena returns an arena for proto.
func NewArena(proto Protocol) *Arena {
	return &Arena{exec: newExecutionShell(proto)}
}

// Run executes one protocol instance against the adversary with the
// given seed, reusing the arena's engine state, and returns the trace —
// valid only until the next Run.
func (a *Arena) Run(inputs []Value, adv Adversary, seed int64, obs ...Observer) (*Trace, error) {
	e := a.exec
	if err := e.reset(inputs, adv, seed, obs); err != nil {
		return nil, err
	}
	if err := e.SetupPhase(); err != nil {
		return nil, err
	}
	for r := 1; r <= e.TotalRounds(); r++ {
		if err := e.Step(r); err != nil {
			return nil, err
		}
	}
	return e.Finalize()
}
