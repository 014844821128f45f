package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Option configures an estimation. The zero configuration — no options —
// uses one worker per CPU and no observers; results are independent of
// the worker count and the observers (see EstimateUtility), so options
// tune performance and instrumentation, never the estimate.
type Option func(*options)

type options struct {
	parallelism int
	batchSize   int
	factory     ObserverFactory
	supFactory  SupObserverFactory
	samplerInto InputSamplerInto
}

// WithParallelism sets the worker count: 1 forces a single worker,
// values <= 0 select DefaultParallelism (the default). Workers never
// share mutable attacker state — a worker that joins an estimate
// another worker started runs its own strategy via sim.CloneAdversary,
// and a non-cloneable strategy never runs on more than one worker.
func WithParallelism(parallelism int) Option {
	return func(o *options) { o.parallelism = parallelism }
}

// withBatchSize sets how many runs a worker leases from the sampler
// stream at a time; <= 0 selects the default (64). The estimate is
// identical for every batch size, which the package tests check by
// setting it; no production caller does.
func withBatchSize(n int) Option {
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
// precedence over WithObserver; EstimateUtility and EstimateJobs ignore
// it.
func WithSupObserver(factory SupObserverFactory) Option {
	return func(o *options) { o.supFactory = factory }
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

// batcher streams one estimate's (inputs, seed) jobs to the workers in
// the estimator's canonical order. This is the determinism contract:
// the estimate's master stream is consumed exactly as the original
// sequential loop consumed it (sampler first, then Int63, per run), one
// batch at a time under the lock, so run i receives the same job no
// matter how many workers lease batches or in what order they arrive —
// without materializing an O(runs) job slice up front.
type batcher struct {
	mu          sync.Mutex
	seed        int64
	seeder      *rand.Rand // seeded from seed on the first lease
	sampler     InputSampler
	samplerInto InputSamplerInto
	next        int
	runs        int
}

// fill leases the next batch into buf (up to cap(buf) jobs), returning
// the base run index and the filled prefix; empty means work exhausted.
// An in-place sampler refills each slot's input slice, so a worker's
// batch buffer stops allocating once its slots have grown.
func (b *batcher) fill(buf []preparedRun) (int, []preparedRun) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seeder == nil {
		b.seeder = rng.New(b.seed)
	}
	base := b.next
	k := b.runs - b.next
	if k > cap(buf) {
		k = cap(buf)
	}
	buf = buf[:k]
	for i := range buf {
		if b.samplerInto != nil {
			buf[i].inputs = b.samplerInto(b.seeder, buf[i].inputs[:0])
		} else {
			buf[i].inputs = b.sampler(b.seeder)
		}
		buf[i].seed = b.seeder.Int63()
	}
	b.next += k
	return base, buf
}

// left is the number of runs no worker has leased yet.
func (b *batcher) left() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs - b.next
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
// paper's dyadic payoff vectors (see stats.EstimateFromCounts).
func (t *runTally) report(gamma Payoff, runs int) (UtilityReport, error) {
	events := Events()
	var values [4]float64
	for i, e := range events {
		values[i] = gamma.Of(e)
	}
	est, err := stats.EstimateFromCounts(values[:], t.events[:])
	if err != nil {
		return UtilityReport{}, err
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

// Job is one estimate of an EstimateJobs call: Runs seeded simulations
// of strategy Adv from master seed Seed. Observe, when non-nil, builds
// the observers of the job's runs (indexed 0..Runs-1 within the job)
// in place of the call's WithObserver factory.
type Job struct {
	Adv     sim.Adversary
	Runs    int
	Seed    int64
	Observe ObserverFactory
}

// JobReport is one job's result: the report EstimateUtility gives for
// the job alone, the exact outcome counts behind it (canonical E00..E11
// order), or the job's own error — a failing job fails no other.
type JobReport struct {
	UtilityReport
	Events [4]int64
	Err    error
}

// jobState is one job's place in an EstimateJobs schedule.
type jobState struct {
	Job
	b batcher
	// clones are the strategy instances of the workers that may join the
	// job, made before any worker runs it; none for a strategy that
	// cannot be cloned, which only its starter runs.
	clones []sim.Adversary
}

// schedule hands an EstimateJobs call's jobs to its workers.
type schedule struct {
	mu   sync.Mutex
	jobs []jobState
	next int // the first job no worker has started
}

// take returns the job the calling worker leases runs from next, with
// the strategy instance it runs them on, or -1 when no job has runs
// left to lease. Unstarted jobs go first, in job order, on the job's
// own strategy; once every job has started, the worker joins the
// started job with the most runs left that has a clone to spare.
func (s *schedule) take() (int, sim.Adversary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.next < len(s.jobs) {
		i := s.next
		s.next++
		if s.jobs[i].Runs > 0 {
			return i, s.jobs[i].Adv
		}
	}
	best, most := -1, 0
	for i := range s.jobs {
		if left := s.jobs[i].b.left(); len(s.jobs[i].clones) > 0 && left > most {
			best, most = i, left
		}
	}
	if best < 0 {
		return -1, nil
	}
	j := &s.jobs[best]
	c := j.clones[len(j.clones)-1]
	j.clones = j.clones[:len(j.clones)-1]
	return best, c
}

// share is one worker's part of one job: its outcome tally, engine
// counters and first failed run. A worker leases a job's runs in
// increasing order, so that failure is its lowest-index one. Each
// worker allocates its own shares, so workers never write to adjacent
// slots of one slice.
type share struct {
	job     int
	tally   runTally
	metrics sim.Metrics
	failed  runError
}

// work is one worker: it takes jobs until none has runs left, replays
// every leased run on its one arena, and returns a share per job it
// touched.
func (s *schedule) work(proto sim.Protocol, factory ObserverFactory, batch int) []*share {
	var arena *sim.Arena
	var shares []*share
	buf := make([]preparedRun, 0, batch)
	obs := make([]sim.Observer, 0, 2)
	for {
		i, adv := s.take()
		if i < 0 {
			return shares
		}
		if arena == nil {
			arena = sim.NewArena(proto)
		}
		j := &s.jobs[i]
		observe := j.Observe
		if observe == nil {
			observe = factory
		}
		sh := &share{job: i}
		shares = append(shares, sh)
		for {
			base, runs := j.b.fill(buf)
			if len(runs) == 0 {
				break
			}
			for k := range runs {
				run := base + k
				obs = append(obs[:0], &sh.metrics)
				if observe != nil {
					if ob := observe(run); ob != nil {
						obs = append(obs, ob)
					}
				}
				tr, err := arena.Run(runs[k].inputs, adv, runs[k].seed, obs...)
				if err == nil {
					err = sh.tally.add(Classify(tr))
				}
				if err != nil && sh.failed.err == nil {
					sh.failed = runError{run: run, err: err}
				}
			}
		}
	}
}

// EstimateJobs estimates independent jobs against one protocol, payoff
// and sampler on one set of workers, and returns their reports in job
// order. Every report is exactly what EstimateUtility returns for its
// job alone at any parallelism: jobs are scheduling units, never
// statistical ones.
//
// Each worker keeps one sim.Arena for the whole call. It leases batches
// of runs from its current job until the job runs dry, then starts the
// next unstarted job; only when every job has started does it join a
// started one, on a clone of its strategy (never for a non-cloneable
// strategy). So a wave of short estimates runs side by side, one per
// worker, and a lone estimate is split across every worker as
// EstimateUtility splits it.
//
// WithObserver applies to jobs without their own Observe. A job with
// Runs <= 0 reports ErrNoRuns.
func EstimateJobs(proto sim.Protocol, jobs []Job, gamma Payoff, sampler InputSampler, opts ...Option) []JobReport {
	return estimateJobs(proto, jobs, gamma, sampler, resolveOptions(opts))
}

func estimateJobs(proto sim.Protocol, jobs []Job, gamma Payoff, sampler InputSampler, o options) []JobReport {
	workers := o.parallelism
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	batch := o.batchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	s := &schedule{jobs: make([]jobState, len(jobs))}
	busy, longest := 0, 0 // the most workers the jobs can keep busy; the longest job
	for _, j := range jobs {
		if j.Runs > 0 {
			busy += min(j.Runs, workers)
			longest = max(longest, j.Runs)
		}
	}
	workers = min(workers, busy)
	batch = min(batch, longest)
	for i, j := range jobs {
		s.jobs[i].Job = j
		if j.Runs <= 0 {
			continue
		}
		s.jobs[i].b = batcher{seed: j.Seed, sampler: sampler, samplerInto: o.samplerInto, runs: j.Runs}
		// Every other worker joins a job at most once, and only while it
		// has a batch left after its starter's first lease.
		for k := min(workers, (j.Runs-1)/batch+1) - 1; k > 0; k-- {
			c, ok := sim.CloneAdversary(j.Adv)
			if !ok {
				break
			}
			s.jobs[i].clones = append(s.jobs[i].clones, c)
		}
	}

	parts := make([][]*share, workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = s.work(proto, o.factory, batch)
		}()
	}
	wg.Wait()

	merged := make([]share, len(jobs))
	for _, part := range parts {
		for _, sh := range part {
			m := &merged[sh.job]
			m.tally.merge(sh.tally)
			m.metrics.Add(sh.metrics)
			if f := sh.failed; f.err != nil && (m.failed.err == nil || f.run < m.failed.run) {
				m.failed = f
			}
		}
	}
	out := make([]JobReport, len(jobs))
	for i, j := range jobs {
		m := &merged[i]
		if j.Runs <= 0 {
			out[i].Err = ErrNoRuns
			continue
		}
		// Deterministic error reporting: the lowest-index failure,
		// phrased exactly as the classic sequential loop phrased it.
		if m.failed.err != nil {
			out[i].Err = fmt.Errorf("core: run %d: %w", m.failed.run, m.failed.err)
			continue
		}
		rep, err := m.tally.report(gamma, j.Runs)
		if err != nil {
			out[i].Err = err
			continue
		}
		rep.Metrics = m.metrics
		out[i] = JobReport{UtilityReport: rep, Events: m.tally.events}
	}
	return out
}

// EstimateUtility measures the attacker utility of strategy adv against
// proto under payoff gamma by repeated seeded simulation: the empirical
// version of Equation (2) for a fixed (adversary, environment) pair.
//
// The estimate is a pure function of (runs, seed): parallelism and
// observers change how the runs are scheduled, never what they compute.
// It is EstimateJobs' one-job case: workers lease batches of (inputs,
// seed) jobs drawn in the canonical master-stream order, replay them on
// per-worker sim.Arenas (reused execution state and on-demand RNG
// streams, no per-run engine allocation), and keep integer outcome
// tallies that merge order-independently into the report.
func EstimateUtility(proto sim.Protocol, adv sim.Adversary, gamma Payoff,
	sampler InputSampler, runs int, seed int64, opts ...Option) (UtilityReport, error) {
	rep := EstimateJobs(proto, []Job{{Adv: adv, Runs: runs, Seed: seed}}, gamma, sampler, opts...)[0]
	return rep.UtilityReport, rep.Err
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
// It is EstimateJobs' all-strategies case: the strategies run side by
// side on the workers, and a space narrower than the worker count
// splits its strategies' runs across the spare workers.
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
	jobs := make([]Job, len(advs))
	for i := range advs {
		advs[i] = space.At(i)
		jobs[i] = Job{Adv: advs[i].Adv, Runs: runs, Seed: seed + int64(i)*7919}
		if f := o.supFactory; f != nil {
			name := advs[i].Name
			jobs[i].Observe = func(run int) sim.Observer { return f(name, run) }
		}
	}
	reports := estimateJobs(proto, jobs, gamma, sampler, o)
	for i, r := range reports {
		if r.Err != nil {
			return SupReport{}, fmt.Errorf("core: strategy %q: %w", advs[i].Name, r.Err)
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
		r := reports[i].UtilityReport
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
	rep.BestReport = reports[bestIdx].UtilityReport
	return rep, nil
}
