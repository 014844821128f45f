package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Config sizes a Pool.
type Config struct {
	// Workers is the number of concurrent job executors (0 = one per
	// CPU). Each estimate/sup job additionally fans out across the
	// estimator's own workers, so a small pool saturates the machine.
	Workers int
	// CacheSize is the LRU result-cache capacity in entries (0 selects
	// DefaultCacheSize, negative disables caching).
	CacheSize int
	// Parallelism is the estimator worker count per job (0 = one per
	// CPU). Scheduling only — results are identical for every setting.
	Parallelism int
}

// DefaultCacheSize is the result-cache capacity when Config.CacheSize
// is zero.
const DefaultCacheSize = 1024

// RetainJobs bounds how many completed jobs stay addressable by ID. The
// bound keeps an always-on daemon's job table from growing without
// limit.
const RetainJobs = 4096

// Stats are the pool's monotonic counters.
type Stats struct {
	// Submitted counts accepted jobs, including cache hits.
	Submitted int64
	// Completed counts jobs that finished successfully (cache hits
	// included); Failed counts jobs whose execution returned an error.
	Completed, Failed int64
	// CacheHits counts submissions served from the result cache.
	CacheHits int64
	// CacheEntries is the current result-cache population.
	CacheEntries int64
}

// Job is a submitted unit of work. Wait blocks until it completes.
type Job struct {
	// ID is the pool-unique job identifier, assigned at Submit.
	ID uint64
	// Kind echoes the parameter kind.
	Kind Kind

	params Params
	opts   jobOptions
	key    uint64 // cache key, computed once at Submit

	done   chan struct{}
	result *Result
	err    error
}

// Done returns a channel closed when the job has completed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes and returns its result.
func (j *Job) Wait() (*Result, error) {
	<-j.done
	return j.result, j.err
}

// Finished reports completion without blocking.
func (j *Job) Finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Pool executes jobs on a bounded set of workers, merges their engine
// metrics, and serves repeated cacheable submissions from an LRU result
// cache. Submit and the accessors are safe for concurrent use.
type Pool struct {
	workers     int
	parallelism int

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	cache    *lru
	inflight map[uint64]*Job // cache key → executing leader job
	jobs     map[uint64]*Job
	retired  []uint64 // completed job IDs in completion order, for pruning
	nextID   uint64
	stats    Stats
	metrics  sim.Metrics
	closed   bool
}

// New starts a pool. Close it to release the workers.
func New(cfg Config) *Pool {
	workers := cfg.Workers
	if workers <= 0 {
		workers = core.DefaultParallelism()
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	p := &Pool{
		workers:     workers,
		parallelism: cfg.Parallelism,
		queue:       make(chan *Job, 4*workers),
		cache:       newLRU(cacheSize),
		inflight:    make(map[uint64]*Job),
		jobs:        make(map[uint64]*Job),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.queue {
				p.execute(j)
			}
		}()
	}
	return p
}

// Close stops accepting jobs and waits for queued ones to finish.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.queue)
	p.wg.Wait()
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: pool is closed")

// cacheKey hashes a parameter set with the sweep's FNV-1a cell-key
// scheme.
func cacheKey(params Params) uint64 {
	return sweep.KeyHash(params.paramString(), params.seed())
}

// Submit validates params and enqueues the job. A submission whose key
// is already resolved completes immediately with the cached result
// (CacheHit set, zero job metrics: no simulation ran). Submit blocks
// when every worker is busy and the queue is full.
func (p *Pool) Submit(params Params, opts ...JobOption) (*Job, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	var jo jobOptions
	for _, o := range opts {
		o(&jo)
	}
	key := cacheKey(params)

	j := &Job{Kind: params.Kind(), params: params, opts: jo, key: key, done: make(chan struct{})}
	j.result = &Result{Kind: j.Kind, Key: key}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.nextID++
	j.ID = p.nextID
	p.jobs[j.ID] = j
	p.stats.Submitted++
	// Cache read, skipped for jobs with execution-local side effects
	// (checkpoints and progress callbacks must still run).
	if !jo.local() {
		if cached, ok := p.cache.get(key); ok {
			j.result = hitResult(cached)
			p.stats.CacheHits++
			p.completeLocked(j)
			p.mu.Unlock()
			close(j.done)
			return j, nil
		}
		// Single-flight: a duplicate of an executing job follows its
		// leader instead of recomputing — a thundering herd of equal
		// requests costs one execution. Followers count as cache hits:
		// they run no simulation and alias the leader's result.
		if leader, ok := p.inflight[key]; ok {
			p.stats.CacheHits++
			p.mu.Unlock()
			go func() {
				<-leader.done
				p.mu.Lock()
				if leader.err != nil {
					j.err = leader.err
				} else {
					j.result = hitResult(leader.result)
				}
				p.completeLocked(j)
				p.mu.Unlock()
				close(j.done)
			}()
			return j, nil
		}
		p.inflight[key] = j
	}
	p.mu.Unlock()

	p.queue <- j
	return j, nil
}

// hitResult copies a completed result as a cache hit: same immutable
// report, zero job metrics (no simulation ran).
func hitResult(src *Result) *Result {
	hit := *src
	hit.CacheHit = true
	hit.Metrics = sim.Metrics{}
	return &hit
}

// Job returns a submitted job by ID while it is retained.
func (p *Pool) Job(id uint64) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// Metrics returns the engine metrics merged across every job this pool
// has executed (cache hits contribute nothing: they run no simulation).
func (p *Pool) Metrics() sim.Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.CacheEntries = int64(p.cache.len())
	return s
}

// completeLocked records a finished job and prunes retained ones.
// Callers hold p.mu and close j.done after unlocking.
func (p *Pool) completeLocked(j *Job) {
	if j.err != nil {
		p.stats.Failed++
	} else {
		p.stats.Completed++
	}
	p.retired = append(p.retired, j.ID)
	for len(p.retired) > RetainJobs {
		delete(p.jobs, p.retired[0])
		p.retired = p.retired[1:]
	}
}

// execute runs one job on a worker goroutine. A job whose context was
// canceled while it waited in the queue fails immediately without
// touching the engine, freeing the worker for live requests; canceled
// results are never cached (the err != nil path below skips the put).
func (p *Pool) execute(j *Job) {
	var res *Result
	var err error
	if ctx := j.opts.ctx; ctx != nil && ctx.Err() != nil {
		err = fmt.Errorf("service: job canceled before execution: %w", ctx.Err())
	} else {
		res, err = p.run(j)
	}

	p.mu.Lock()
	if err != nil {
		j.err = err
	} else {
		j.result = res
		p.metrics.Add(res.Metrics)
	}
	if err == nil {
		p.cache.put(j.key, res)
	}
	if p.inflight[j.key] == j {
		delete(p.inflight, j.key)
	}
	p.completeLocked(j)
	p.mu.Unlock()
	close(j.done)
}

// run dispatches on the job kind and produces its immutable result.
func (p *Pool) run(j *Job) (*Result, error) {
	res := &Result{Kind: j.Kind, Key: j.key}
	switch params := j.params.(type) {
	case EstimateParams:
		proto, sampler, err := BuildProtocol(params.Proto)
		if err != nil {
			return nil, err
		}
		adv, err := BuildAdversary(params.Adv, proto.NumParties())
		if err != nil {
			return nil, err
		}
		rep, err := core.EstimateUtility(proto, adv, resolvePayoff(params.Gamma, params.Proto),
			sampler, params.Runs, params.Seed, core.WithParallelism(p.parallelism))
		if err != nil {
			return nil, err
		}
		res.Estimate = &rep
		res.Metrics = rep.Metrics

	case SupParams:
		proto, sampler, err := BuildProtocol(params.Proto)
		if err != nil {
			return nil, err
		}
		space := make(core.SliceSpace, len(params.Advs))
		for i, name := range params.Advs {
			adv, err := BuildAdversary(name, proto.NumParties())
			if err != nil {
				return nil, err
			}
			space[i] = core.NamedAdversary{Name: name, Adv: adv}
		}
		rep, err := core.SupUtilitySpace(proto, space, resolvePayoff(params.Gamma, params.Proto),
			sampler, params.Runs, params.Seed, core.WithParallelism(p.parallelism))
		if err != nil {
			return nil, err
		}
		res.Sup = &rep
		res.Metrics = rep.Metrics

	case SearchParams:
		proto, sampler, err := BuildProtocol(params.Proto)
		if err != nil {
			return nil, err
		}
		space, err := BuildSpace(params.Space, params.Proto)
		if err != nil {
			return nil, err
		}
		ctx := j.opts.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		o := params.Options()
		o.Parallelism = p.parallelism
		o.Checkpoint = j.opts.checkpoint
		rep, err := search.RunContext(ctx, proto, space, resolvePayoff(params.Gamma, params.Proto),
			sampler, params.Seed, o)
		if err != nil {
			return nil, err
		}
		res.Search = rep
		res.Metrics = rep.Metrics

	case SweepParams:
		ctx := j.opts.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		sum, err := sweep.RunContext(ctx, params.Spec, j.opts.checkpoint, j.opts.progress)
		switch {
		case err == nil:
		case errors.Is(err, sweep.ErrBreach):
			// A breach is a certified negative outcome, not a job
			// failure: the summary is complete and cacheable.
			res.Breached = true
		default:
			return nil, err
		}
		res.Sweep = sum

	default:
		return nil, fmt.Errorf("service: unknown params type %T", j.params)
	}
	return res, nil
}
