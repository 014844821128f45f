package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Option configures an estimation. The zero configuration — no options —
// uses one worker per CPU, the default batch size, and no observers;
// results are independent of every scheduling option (see
// EstimateUtility), so those options tune performance and
// instrumentation, never the estimate. The only exceptions are the
// explicitly statistical options in variance.go — WithControlVariate
// and WithPairedSeeds — which change the estimator or the coin
// sequences by design and are all off by default.
type Option func(*options)

type options struct {
	parallelism  int
	batchSize    int
	factory      ObserverFactory
	supFactory   SupObserverFactory
	metrics      *sim.Metrics
	noCompiled   bool
	samplerInto  InputSamplerInto
	cv           *ControlVariate
	paired       bool
	pairedMaster int64
	pairedOffset int
	eventLog     []Event
}

// WithParallelism sets the worker count: 1 forces a single worker,
// values <= 0 select DefaultParallelism (the default). Workers never
// share mutable attacker state — each gets its own strategy via
// sim.CloneAdversary, and a non-cloneable strategy falls back to a
// single worker.
func WithParallelism(parallelism int) Option {
	return func(o *options) { o.parallelism = parallelism }
}

// WithBatchSize sets how many runs a worker leases from the sampler
// stream at a time; <= 0 selects the default (64). Smaller batches
// balance ragged workloads better, larger ones reduce contention on the
// sampler lock. The estimate is identical for every batch size.
func WithBatchSize(n int) Option {
	return func(o *options) { o.batchSize = n }
}

// WithObserver attaches a per-run engine observer factory (see
// ObserverFactory). Observers never affect the estimate. In a
// SupUtility search the factory applies to every strategy's runs; use
// WithSupObserver to also receive the strategy label.
func WithObserver(factory ObserverFactory) Option {
	return func(o *options) { o.factory = factory }
}

// WithSupObserver attaches a per-run observer factory keyed by strategy
// label, for SupUtility searches (see SupObserverFactory). It takes
// precedence over WithObserver; EstimateUtility ignores it.
func WithSupObserver(factory SupObserverFactory) Option {
	return func(o *options) { o.supFactory = factory }
}

// WithMetrics accumulates the estimation's merged engine counters into
// *m (the same totals as UtilityReport.Metrics / SupReport.Metrics), so
// a caller aggregating over many estimations needs no manual merging.
func WithMetrics(m *sim.Metrics) Option {
	return func(o *options) { o.metrics = m }
}

// WithCompiledPlans toggles the compiled execution plans (sim.CompilePlan
// / sim.PlanRunner) on the estimator hot path. Compiled plans are on by
// default; pairs whose probe run fails fall back to the plain interpreter
// automatically, and a compiled run is bit-identical to an interpreted
// one (the frozen equivalence matrix in the package tests pins this), so
// the only reason to pass false is isolating the interpreter when
// debugging the engine itself.
func WithCompiledPlans(enabled bool) Option {
	return func(o *options) { o.noCompiled = !enabled }
}

// WithSamplerInto replaces the estimation's positional InputSampler with
// an allocation-free variant that fills an engine-owned buffer (see
// InputSamplerInto). It takes precedence over the positional sampler,
// which may then be nil. The estimate is unchanged as long as the two
// samplers draw identically from the master stream.
func WithSamplerInto(sampler InputSamplerInto) Option {
	return func(o *options) { o.samplerInto = sampler }
}

const defaultBatchSize = 64

func resolveOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// preparedRun is one leased Monte-Carlo job: the environment's input
// vector and the simulation seed for a single run.
type preparedRun struct {
	inputs []sim.Value
	seed   int64
}

// batcher streams (inputs, seed) jobs to the estimation workers in the
// estimator's canonical order. This is the determinism contract: the
// master stream is consumed exactly as the original sequential loop
// consumed it (sampler first, then Int63, per run), one batch at a
// time under the lock, so run i receives the same job no matter how
// many workers lease batches or in what order they arrive — without
// materializing an O(runs) job slice up front.
//
// In paired (common-random-numbers) mode the single sequential stream
// is replaced by one per-run stream per job: the reusable source is
// reseeded to PairedRunSeed(master, offset + i) and the run's inputs
// and simulation seed are drawn from it, so run i's coins depend only
// on (master, offset + i) — never on the estimation's own seed or on
// how many runs precede it in this estimation.
type batcher struct {
	mu          sync.Mutex
	seeder      *rand.Rand
	sampler     InputSampler
	samplerInto InputSamplerInto
	next        int
	runs        int

	paired bool
	master int64
	offset int
	src    *rng.Source
	prng   *rand.Rand
}

// fill leases the next batch into buf (up to cap(buf) jobs), returning
// the base run index and the filled prefix; empty means work exhausted.
// An in-place sampler refills each slot's input slice, so a worker's
// batch buffer stops allocating once its slots have grown.
func (b *batcher) fill(buf []preparedRun) (int, []preparedRun) {
	b.mu.Lock()
	defer b.mu.Unlock()
	base := b.next
	k := b.runs - b.next
	if k > cap(buf) {
		k = cap(buf)
	}
	buf = buf[:k]
	for i := range buf {
		draw := b.seeder
		if b.paired {
			b.src.Seed(PairedRunSeed(b.master, b.offset+base+i))
			draw = b.prng
		}
		if b.samplerInto != nil {
			buf[i].inputs = b.samplerInto(draw, buf[i].inputs[:0])
		} else {
			buf[i].inputs = b.sampler(draw)
		}
		buf[i].seed = draw.Int63()
	}
	b.next += k
	return base, buf
}

// runTally is one worker's streaming outcome tally: integer counts
// only, so per-worker tallies merge into the global total by addition,
// independent of worker scheduling.
type runTally struct {
	events     [4]int64 // indexed by Event-1, canonical E00..E11 order
	violations int64
	breaches   int64
	corrupted  int64
}

// add folds one classified outcome into the tally. An outcome carrying
// an event outside the canonical four (in particular the zero Event of a
// mis-built Outcome) is rejected as an error rather than indexing out of
// bounds; the estimator reports it through the per-run error path.
func (t *runTally) add(oc Outcome) error {
	idx := int(oc.Event) - 1
	if idx < 0 || idx >= len(t.events) {
		return fmt.Errorf("outcome has invalid event %d", int(oc.Event))
	}
	t.events[idx]++
	if oc.CorrectnessViolation {
		t.violations++
	}
	if oc.PrivacyBreach {
		t.breaches++
	}
	t.corrupted += int64(oc.Corrupted)
	return nil
}

func (t *runTally) merge(o runTally) {
	for i := range t.events {
		t.events[i] += o.events[i]
	}
	t.violations += o.violations
	t.breaches += o.breaches
	t.corrupted += o.corrupted
}

// report reduces the merged counts to a UtilityReport. Mean and every
// frequency are bit-identical to the legacy per-sample tally for the
// paper's dyadic payoff vectors (see stats.EstimateFromCounts). With a
// control variate, the estimate runs over the residual payoffs
// γ(E) − C(E) and the mean is re-centred by the control's exact
// expectation; the half-width is the residual's. Event frequencies and
// the auxiliary rates are unaffected either way.
func (t *runTally) report(gamma Payoff, runs int, cv *ControlVariate) (UtilityReport, error) {
	events := Events()
	var values [4]float64
	for i, e := range events {
		values[i] = gamma.Of(e)
		if cv != nil {
			values[i] -= cv.EventValue[i]
		}
	}
	est, err := stats.EstimateFromCounts(values[:], t.events[:])
	if err != nil {
		return UtilityReport{}, err
	}
	if cv != nil {
		est.Mean += cv.Mean
	}
	freq := make(map[Event]float64, 4)
	for i, e := range events {
		freq[e] = float64(t.events[i]) / float64(runs)
	}
	return UtilityReport{
		Utility:               est,
		EventFreq:             freq,
		CorrectnessViolations: float64(t.violations) / float64(runs),
		PrivacyBreaches:       float64(t.breaches) / float64(runs),
		MeanCorrupted:         float64(t.corrupted) / float64(runs),
		Runs:                  runs,
	}, nil
}

// runError records a failed run for deterministic reporting.
type runError struct {
	run int
	err error
}

// simRunner is the per-worker execution surface: sim.Arena (the
// interpreter) and sim.PlanRunner (compiled-plan replay) both satisfy
// it with identical run semantics.
type simRunner interface {
	Run(inputs []sim.Value, adv sim.Adversary, seed int64, obs ...sim.Observer) (*sim.Trace, error)
}

// EstimateUtility measures the attacker utility of strategy adv against
// proto under payoff gamma by repeated seeded simulation: the empirical
// version of Equation (2) for a fixed (adversary, environment) pair.
//
// The estimate is a pure function of (runs, seed): every scheduling
// option — parallelism, batch size, observers — changes how the runs
// are scheduled, never what they compute. Workers lease batches of
// (inputs, seed) jobs drawn in the canonical master-stream order,
// replay them on per-worker sim.Arenas (reused execution state, no
// per-run allocation), and keep integer outcome tallies that merge
// order-independently into the report.
//
// The statistical options are the deliberate exception to that purity:
// WithPairedSeeds swaps the (runs, seed) coin stream for a shared
// common-random-numbers master stream, and WithControlVariate changes
// the estimator itself (same expectation, smaller variance). Both are
// off by default; with them off the report stays byte-identical to the
// frozen contract.
func EstimateUtility(proto sim.Protocol, adv sim.Adversary, gamma Payoff,
	sampler InputSampler, runs int, seed int64, opts ...Option) (UtilityReport, error) {
	o := resolveOptions(opts)
	if runs <= 0 {
		return UtilityReport{}, ErrNoRuns
	}
	workers := o.parallelism
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers > runs {
		workers = runs
	}
	clones := []sim.Adversary{adv}
	if workers > 1 {
		clones = make([]sim.Adversary, 1, workers)
		clones[0] = adv
		for w := 1; w < workers; w++ {
			c, ok := sim.CloneAdversary(adv)
			if !ok {
				// Fallback: a strategy we cannot copy must not be shared
				// across goroutines, so serialize its runs.
				workers = 1
				clones = clones[:1]
				break
			}
			clones = append(clones, c)
		}
	}
	batch := o.batchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	if batch > runs {
		batch = runs
	}

	// Compile the pair's execution plan unless disabled. A pair whose
	// probe run fails is not compilable — those estimations silently run
	// on the plain interpreter, with identical results (plans change
	// stream construction and buffer sizing, never semantics).
	var plan *sim.Plan
	if !o.noCompiled {
		if p, perr := sim.CompilePlan(proto, adv); perr == nil {
			plan = p
		}
	}

	b := &batcher{seeder: rng.New(seed), sampler: sampler, samplerInto: o.samplerInto, runs: runs}
	if o.paired {
		b.paired, b.master, b.offset = true, o.pairedMaster, o.pairedOffset
		b.src = rng.NewSource(0)
		b.prng = rand.New(b.src)
	}
	if o.eventLog != nil && len(o.eventLog) < runs {
		return UtilityReport{}, fmt.Errorf("core: event log holds %d slots for %d runs", len(o.eventLog), runs)
	}
	tallies := make([]runTally, workers)
	workerMetrics := make([]sim.Metrics, workers)
	errLists := make([][]runError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, worker sim.Adversary) {
			defer wg.Done()
			var arena simRunner
			if plan != nil {
				arena = sim.NewPlanRunner(plan)
			} else {
				arena = sim.NewArena(proto)
			}
			buf := make([]preparedRun, 0, batch)
			obs := make([]sim.Observer, 0, 2)
			for {
				base, jobs := b.fill(buf)
				if len(jobs) == 0 {
					return
				}
				for j := range jobs {
					i := base + j
					obs = append(obs[:0], &workerMetrics[w])
					if o.factory != nil {
						if ob := o.factory(i); ob != nil {
							obs = append(obs, ob)
						}
					}
					tr, err := arena.Run(jobs[j].inputs, worker, jobs[j].seed, obs...)
					if err == nil {
						oc := Classify(tr)
						if err = tallies[w].add(oc); err == nil {
							if o.eventLog != nil {
								o.eventLog[i] = oc.Event
							}
						}
					}
					if err != nil {
						errLists[w] = append(errLists[w], runError{run: i, err: err})
					}
				}
			}
		}(w, clones[w])
	}
	wg.Wait()

	// Deterministic error reporting: the lowest-index failure, phrased
	// exactly as the classic sequential loop phrased it.
	first := runError{run: runs}
	for _, list := range errLists {
		for _, re := range list {
			if re.run < first.run {
				first = re
			}
		}
	}
	if first.err != nil {
		return UtilityReport{}, fmt.Errorf("core: run %d: %w", first.run, first.err)
	}

	var total runTally
	var merged sim.Metrics
	for w := range tallies {
		total.merge(tallies[w])
		merged.Add(workerMetrics[w])
	}
	rep, err := total.report(gamma, runs, o.cv)
	if err != nil {
		return UtilityReport{}, err
	}
	rep.Metrics = merged
	if o.metrics != nil {
		o.metrics.Add(merged)
	}
	return rep, nil
}

// SupUtility approximates sup_A u_A(Π, A) over an eager strategy slice.
// It is the documented one-line adapter over SupUtilitySpace — the
// legacy signature every pre-StrategySpace caller used — and produces
// bit-identical reports to it (the frozen sup matrices in the package
// tests pin this).
func SupUtility(proto sim.Protocol, advs []NamedAdversary, gamma Payoff,
	sampler InputSampler, runs int, seed int64, opts ...Option) (SupReport, error) {
	return SupUtilitySpace(proto, SliceSpace(advs), gamma, sampler, runs, seed, opts...)
}

// SupUtilitySpace approximates sup_A u_A(Π, A) over a finite strategy
// space — the left-hand side of Definition 1 restricted to the space's
// strategies (which, for the protocols studied here, include the
// proof-optimal attackers). This is the exhaustive evaluation: every
// strategy is estimated at the full run count. For large raw spaces,
// the racing/branch-and-bound engine in internal/search reaches the
// same best strategy at a fraction of the runs.
//
// Each strategy keeps the canonical per-strategy seed (seed + i*7919),
// so every per-strategy report — and the best-strategy selection, which
// breaks utility ties in space order — is independent of parallelism.
// Each worker estimates a clone when the strategy is cloneable and
// otherwise owns the instance exclusively while its estimate runs. With
// a single strategy (or a non-parallel space) and parallelism > 1, the
// parallelism is spent inside each strategy's run loop instead.
func SupUtilitySpace(proto sim.Protocol, space StrategySpace, gamma Payoff,
	sampler InputSampler, runs int, seed int64, opts ...Option) (SupReport, error) {
	o := resolveOptions(opts)
	if space == nil || space.Len() == 0 {
		return SupReport{}, errors.New("core: empty strategy space")
	}
	// Materialize the enumeration once: the exhaustive evaluation visits
	// every index anyway, and a single At call per index preserves the
	// instance-exclusivity contract for lazily constructed strategies.
	advs := make([]NamedAdversary, space.Len())
	for i := range advs {
		advs[i] = space.At(i)
	}
	perStrategy := func(name string) ObserverFactory {
		if o.supFactory != nil {
			f := o.supFactory
			return func(run int) sim.Observer { return f(name, run) }
		}
		return o.factory
	}
	workers := o.parallelism
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers > len(advs) {
		workers = len(advs)
	}
	// When the strategy space is narrower than the requested parallelism,
	// push the surplus into the per-strategy run loop.
	inner := 1
	if workers == 1 && o.parallelism != 1 {
		inner = o.parallelism
	}
	reports := make([]UtilityReport, len(advs))
	errs := make([]error, len(advs))
	estimate := func(i int, adv sim.Adversary, par int) {
		eopts := make([]Option, 0, 5)
		eopts = append(eopts, WithParallelism(par))
		if o.batchSize > 0 {
			eopts = append(eopts, WithBatchSize(o.batchSize))
		}
		if f := perStrategy(advs[i].Name); f != nil {
			eopts = append(eopts, WithObserver(f))
		}
		if o.noCompiled {
			eopts = append(eopts, WithCompiledPlans(false))
		}
		if o.samplerInto != nil {
			eopts = append(eopts, WithSamplerInto(o.samplerInto))
		}
		reports[i], errs[i] = EstimateUtility(proto, adv, gamma, sampler,
			runs, seed+int64(i)*7919, eopts...)
	}
	if workers <= 1 {
		for i, na := range advs {
			estimate(i, na.Adv, inner)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(advs) {
						return
					}
					adv := advs[i].Adv
					if c, ok := sim.CloneAdversary(adv); ok {
						adv = c
					}
					estimate(i, adv, 1)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return SupReport{}, fmt.Errorf("core: strategy %q: %w", advs[i].Name, err)
		}
	}
	rep := SupReport{All: make(map[string]UtilityReport, len(advs))}
	// Best-strategy selection: the first strategy with a comparable
	// (non-NaN) mean seeds the maximum, so arbitrarily negative utilities
	// still win over nothing, NaN means never become Best, and ties keep
	// breaking in slice order. If no strategy yields a comparable mean the
	// sup is undefined — report that instead of an empty Best.
	bestIdx := -1
	for i, na := range advs {
		r := reports[i]
		rep.All[na.Name] = r
		rep.Metrics.Add(r.Metrics)
		if math.IsNaN(r.Utility.Mean) {
			continue
		}
		if bestIdx < 0 || r.Utility.Mean > reports[bestIdx].Utility.Mean {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return SupReport{}, errors.New("core: no strategy produced a comparable utility (all estimated means are NaN)")
	}
	rep.Best = advs[bestIdx].Name
	rep.BestReport = reports[bestIdx]
	if o.metrics != nil {
		o.metrics.Add(rep.Metrics)
	}
	return rep, nil
}
