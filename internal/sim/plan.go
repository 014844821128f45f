package sim

import (
	"fmt"

	"repro/internal/rng"
)

// Compiled execution plans.
//
// The generic engine re-derives everything per run: five RNG streams are
// fully seeded (the dominant cost — each Seed warms up 607 state words),
// machines are rebuilt, and message lanes grow from empty. For a fixed
// (protocol, adversary) pair almost all of that structure is identical
// across runs: the round count, the corruption schedule, the per-stream
// randomness consumption, and the per-round lane shapes are properties
// of the pair, not of the inputs or the seed.
//
// CompilePlan runs the interpreter once in recording mode to capture
// that structure; a PlanRunner then replays runs on a private Execution
// whose streams are pre-drawn slabs sized by the plan (internal/rng's
// SlabSource) and whose lanes and scratch are pre-sized to the recorded
// shapes. Replay drives the same state machine as the interpreter — the
// semantics are shared, only the stream construction and buffer sizing
// are specialized — so a plan-driven run is bit-identical to an
// interpreted one by construction, and the estimator's frozen
// equivalence matrix (core.TestCompiledMatchesInterpreted*) pins it.
//
// Stream offsets recorded by the plan are a prediction, not a contract:
// a run that consumes more than its slab (an adversary mixing
// sub-strategies, a rejection-sampling long tail) transparently falls
// back to the full stream construction mid-run and stays exact; the
// runner then raises that stream's pre-draw for subsequent runs.

// execStreams bundles the slab sources behind a plan-driven Execution's
// RNG streams: the engine's three and one per party (index id-1).
type execStreams struct {
	master *rng.SlabSource
	proto  *rng.SlabSource
	adv    *rng.SlabSource
	party  []*rng.SlabSource
}

func newExecStreams(n int) *execStreams {
	st := &execStreams{
		master: rng.NewSlabSource(),
		proto:  rng.NewSlabSource(),
		adv:    rng.NewSlabSource(),
		party:  make([]*rng.SlabSource, n),
	}
	for i := range st.party {
		st.party[i] = rng.NewSlabSource()
	}
	return st
}

// Plan is the compiled per-pair schedule: the structure of one
// (protocol, adversary) pair's runs as recorded from a probe run of the
// interpreter on the protocol's default inputs. A Plan is immutable
// after compilation and may back any number of PlanRunners concurrently
// (each runner keeps private adaptive state).
type Plan struct {
	proto       Protocol
	n           int
	totalRounds int

	// Recorded structure of the probe run.

	// Corrupted is the statically corrupted set, ascending.
	corrupted []PartyID
	// setupAborted records the adversary's setup-abort decision.
	setupAborted bool
	// adaptive[r-1] counts adaptive corruptions before round r.
	adaptive []int
	// laneCap[i] is the high-water inbox length of party i+1 across all
	// rounds; msgCap the high-water per-round send count.
	laneCap []int
	msgCap  int

	// Recorded RNG stream consumption (draw counts per run).
	protoDraws int
	advDraws   int
	partyDraws []int
}

// Corrupted returns the statically corrupted set the probe recorded,
// ascending. The slice is the plan's own; callers must not mutate it.
func (p *Plan) Corrupted() []PartyID { return p.corrupted }

// SetupAborted reports the probe run's setup-abort decision.
func (p *Plan) SetupAborted() bool { return p.setupAborted }

// StreamDraws returns the probe run's RNG consumption: the protocol
// stream, the adversary stream, and one count per party stream.
func (p *Plan) StreamDraws() (proto, adv int, party []int) {
	return p.protoDraws, p.advDraws, append([]int(nil), p.partyDraws...)
}

// planRecorder captures the structural schedule during the probe run.
type planRecorder struct {
	NopObserver
	n            int
	corrupted    []PartyID
	setupAborted bool
	adaptive     []int
	laneCap      []int
	laneCur      []int
	msgCap       int
	msgCur       int
}

func (r *planRecorder) PartyCorrupted(round int, id PartyID) {
	if round == 0 {
		r.corrupted = append(r.corrupted, id)
		return
	}
	for len(r.adaptive) < round {
		r.adaptive = append(r.adaptive, 0)
	}
	r.adaptive[round-1]++
}

func (r *planRecorder) SetupFinished(aborted bool) { r.setupAborted = aborted }

func (r *planRecorder) RoundStarted(int) {
	for i := range r.laneCur {
		r.laneCur[i] = 0
	}
	r.msgCur = 0
}

func (r *planRecorder) MessageDelivered(_ int, to PartyID, _ Message) {
	r.laneCur[to-1]++
	if r.laneCur[to-1] > r.laneCap[to-1] {
		r.laneCap[to-1] = r.laneCur[to-1]
	}
}

func (r *planRecorder) MessageSent(int, Message, bool) {
	r.msgCur++
	if r.msgCur > r.msgCap {
		r.msgCap = r.msgCur
	}
}

// planProbeSeed seeds the recording run. Any fixed seed works — the
// recorded shapes are a starting prediction that runners refine — but it
// must be deterministic so compiling is reproducible.
const planProbeSeed int64 = 1

// CompilePlan compiles the execution plan for one (protocol, adversary)
// pair by running the Execution state machine once in recording mode on
// the protocol's default inputs. Pairs whose probe run fails are not
// compilable; callers fall back to the plain interpreter. The adversary
// is driven through one run (its per-run state is disturbed exactly as
// any run disturbs it — Reset restores it); the compiled plan itself
// holds no adversary state, so one plan serves clones of the adversary
// as well.
func CompilePlan(proto Protocol, adv Adversary) (*Plan, error) {
	n := proto.NumParties()
	inputs := make([]Value, n)
	for i := range inputs {
		inputs[i] = proto.DefaultInput(PartyID(i + 1))
	}

	e := newExecutionShell(proto, true)
	st := e.streams
	rec := &planRecorder{n: n, laneCap: make([]int, n), laneCur: make([]int, n)}

	if err := e.reset(inputs, adv, planProbeSeed, []Observer{rec}); err != nil {
		return nil, fmt.Errorf("sim: compile plan: %w", err)
	}
	if err := e.SetupPhase(); err != nil {
		return nil, fmt.Errorf("sim: compile plan: %w", err)
	}
	for r := 1; r <= e.TotalRounds(); r++ {
		if err := e.Step(r); err != nil {
			return nil, fmt.Errorf("sim: compile plan: %w", err)
		}
	}
	if _, err := e.Finalize(); err != nil {
		return nil, fmt.Errorf("sim: compile plan: %w", err)
	}

	p := &Plan{
		proto:        proto,
		n:            n,
		totalRounds:  e.TotalRounds(),
		corrupted:    rec.corrupted,
		setupAborted: rec.setupAborted,
		adaptive:     rec.adaptive,
		laneCap:      rec.laneCap,
		msgCap:       rec.msgCap,
		protoDraws:   st.proto.Served(),
		advDraws:     st.adv.Served(),
		partyDraws:   make([]int, n),
	}
	for i, src := range st.party {
		p.partyDraws[i] = src.Served()
	}
	return p, nil
}

// PlanRunner replays a compiled plan: the estimator's hot path. It owns
// a private Execution whose five RNG streams are slab sources sized by
// the plan's recorded draw counts, and whose lanes and scratch buffers
// are pre-sized to the recorded shapes, so a steady-state run performs
// no engine allocation and no full stream seeding. Run has the exact
// signature and semantics of Arena.Run — same traces, same errors, same
// observer event stream — and the same validity rule: the returned
// trace lives until the next Run.
//
// A PlanRunner is not safe for concurrent use; the parallel estimator
// builds one per worker from a shared Plan.
type PlanRunner struct {
	plan *Plan
	exec *Execution

	// Adaptive per-stream pre-draw sizes, seeded from the plan and
	// raised whenever a run overdraws its slab.
	protoWant int
	advWant   int
	partyWant []int
}

// NewPlanRunner builds a runner for the plan.
func NewPlanRunner(plan *Plan) *PlanRunner {
	e := newExecutionShell(plan.proto, true)

	// Pre-size the message lanes and send buffers to the recorded
	// shapes, so even the first runs grow nothing.
	n := plan.n
	e.inboxes = make([][]Message, n)
	e.spare = make([][]Message, n)
	for i := 0; i < n; i++ {
		e.inboxes[i] = make([]Message, 0, plan.laneCap[i])
		e.spare[i] = make([]Message, 0, plan.laneCap[i])
	}
	e.honestOut = make([]Message, 0, plan.msgCap)
	e.rushed = make([]Message, 0, plan.msgCap)

	return &PlanRunner{
		plan:      plan,
		exec:      e,
		protoWant: plan.protoDraws,
		advWant:   plan.advDraws,
		partyWant: append([]int(nil), plan.partyDraws...),
	}
}

// Run executes one planned run. See Arena.Run for the contract.
func (p *PlanRunner) Run(inputs []Value, adv Adversary, seed int64, obs ...Observer) (*Trace, error) {
	st := p.exec.streams
	st.proto.SetWant(p.protoWant)
	st.adv.SetWant(p.advWant)
	for i, src := range st.party {
		src.SetWant(p.partyWant[i])
	}

	e := p.exec
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
	tr, err := e.Finalize()
	if err != nil {
		return nil, err
	}

	// Adaptive refinement: a stream that overdrew its slab paid one full
	// reseed this run; raise its pre-draw so subsequent runs do not.
	if s := st.proto.Served(); s > p.protoWant {
		p.protoWant = s
	}
	if s := st.adv.Served(); s > p.advWant {
		p.advWant = s
	}
	for i, src := range st.party {
		if s := src.Served(); s > p.partyWant[i] {
			p.partyWant[i] = s
		}
	}
	return tr, nil
}
