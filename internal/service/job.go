package service

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Kind classifies a job.
type Kind string

// Job kinds.
const (
	// KindEstimate measures one (protocol, adversary, γ) utility.
	KindEstimate Kind = "estimate"
	// KindSup searches the sup-utility over a strategy space.
	KindSup Kind = "sup"
	// KindSearch races a strategy space to its certified best response.
	KindSearch Kind = "search"
	// KindSweep runs a bound-certifying parameter sweep.
	KindSweep Kind = "sweep"
)

// Params is a validated, typed job parameter set. Implementations are
// plain JSON-serializable structs so the daemon can decode them
// directly from request bodies.
type Params interface {
	// Kind names the job type the parameters describe.
	Kind() Kind
	// Validate resolves every name and range eagerly so Submit rejects
	// malformed requests before they reach a worker.
	Validate() error
	// paramString is the canonical parameter encoding hashed (together
	// with the seed) into the cache key. It must cover everything that
	// can change the result and nothing that cannot: scheduling-only
	// knobs (parallelism) are excluded by the estimator's determinism
	// contract.
	paramString() string
	// seed is the seed hashed into the cache key next to paramString.
	seed() int64
}

// gammaString renders a payoff vector canonically (the sweep's format).
func gammaString(g core.Payoff) string {
	return fmt.Sprintf("%g,%g,%g,%g", g.G00, g.G01, g.G10, g.G11)
}

// resolvePayoff turns an optional request vector into a core.Payoff,
// defaulting per protocol family.
func resolvePayoff(g *[4]float64, protoName string) core.Payoff {
	if g == nil {
		return DefaultPayoff(protoName)
	}
	return core.Payoff{G00: g[0], G01: g[1], G10: g[2], G11: g[3]}
}

// EstimateParams describes one utility estimation: protocol and
// adversary by registry name, optional payoff override, run count and
// seed. The zero Gamma (nil) selects the protocol family's default
// vector.
type EstimateParams struct {
	Proto string      `json:"proto"`
	Adv   string      `json:"adv"`
	Gamma *[4]float64 `json:"gamma,omitempty"`
	Runs  int         `json:"runs"`
	Seed  int64       `json:"seed"`
}

// Kind implements Params.
func (p EstimateParams) Kind() Kind { return KindEstimate }

// Validate implements Params.
func (p EstimateParams) Validate() error {
	if p.Runs <= 0 {
		return fmt.Errorf("service: estimate: %w", core.ErrNoRuns)
	}
	proto, _, err := BuildProtocol(p.Proto)
	if err != nil {
		return fmt.Errorf("service: estimate: %w", err)
	}
	if _, err := BuildAdversary(p.Adv, proto.NumParties()); err != nil {
		return fmt.Errorf("service: estimate: %w", err)
	}
	return nil
}

func (p EstimateParams) paramString() string {
	return fmt.Sprintf("estimate|proto=%s|adv=%s|g=%s|runs=%d",
		p.Proto, p.Adv, gammaString(resolvePayoff(p.Gamma, p.Proto)), p.Runs)
}

func (p EstimateParams) seed() int64 { return p.Seed }

// SupParams describes a sup-utility search over a named strategy space.
type SupParams struct {
	Proto string      `json:"proto"`
	Advs  []string    `json:"advs"`
	Gamma *[4]float64 `json:"gamma,omitempty"`
	Runs  int         `json:"runs"`
	Seed  int64       `json:"seed"`
}

// Kind implements Params.
func (p SupParams) Kind() Kind { return KindSup }

// Validate implements Params.
func (p SupParams) Validate() error {
	if p.Runs <= 0 {
		return fmt.Errorf("service: sup: %w", core.ErrNoRuns)
	}
	if len(p.Advs) == 0 {
		return errors.New("service: sup: empty strategy space")
	}
	proto, _, err := BuildProtocol(p.Proto)
	if err != nil {
		return fmt.Errorf("service: sup: %w", err)
	}
	for _, a := range p.Advs {
		if _, err := BuildAdversary(a, proto.NumParties()); err != nil {
			return fmt.Errorf("service: sup: %w", err)
		}
	}
	return nil
}

func (p SupParams) paramString() string {
	return fmt.Sprintf("sup|proto=%s|advs=%s|g=%s|runs=%d",
		p.Proto, strings.Join(p.Advs, "+"), gammaString(resolvePayoff(p.Gamma, p.Proto)), p.Runs)
}

func (p SupParams) seed() int64 { return p.Seed }

// SweepParams wraps a sweep.Spec as a job. The spec's scheduling knob
// (Parallelism) is excluded from the cache key — the sweep documents
// that it never changes any record.
type SweepParams struct {
	Spec sweep.Spec `json:"spec"`
}

// Kind implements Params.
func (p SweepParams) Kind() Kind { return KindSweep }

// Validate implements Params.
func (p SweepParams) Validate() error {
	if _, err := sweep.Plan(p.Spec); err != nil {
		// sweep.Plan's errors already read "sweep: …".
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

func (p SweepParams) paramString() string {
	s := p.Spec
	gs := make([]string, len(s.Gammas))
	for i, g := range s.Gammas {
		gs[i] = gammaString(g)
	}
	return fmt.Sprintf("sweep|fam=%v|g=%v|n=%v|t=%v|p=%v|cost=%v|abort=%t|sup=%d|runs=%d|hw=%g|delta=%g|min=%d|max=%d|slack=%g",
		s.Families, gs, s.Ns, s.Ts, s.Ps, s.Costs, s.AbortSweep, s.SupRuns,
		s.Runs, s.TargetHW, s.Delta, s.MinRuns, s.MaxRuns, s.Slack)
}

func (p SweepParams) seed() int64 { return p.Spec.Seed }

// Result is a completed job's immutable outcome. Exactly one of the
// kind-specific fields is set. Results served from the cache alias the
// originals — callers must treat every field as read-only.
type Result struct {
	// Kind echoes the job kind.
	Kind Kind
	// Estimate is set for KindEstimate jobs.
	Estimate *core.UtilityReport
	// Sup is set for KindSup jobs.
	Sup *core.SupReport
	// Search is set for KindSearch jobs.
	Search *search.Report
	// Sweep is set for KindSweep jobs. A sweep that breached a bound
	// still produces a summary; Breached records that outcome.
	Sweep    *sweep.Summary
	Breached bool
	// Metrics counts the engine work this job performed. Zero for cache
	// hits: no simulation ran. (The reports' own Metrics fields keep the
	// original values — they describe the estimation that produced the
	// numbers and are part of the cached bytes.)
	Metrics sim.Metrics
	// CacheHit reports whether the result was served from the cache.
	CacheHit bool
	// Key is the cache key.
	Key uint64
}

// JobOption attaches execution-local configuration to one job.
// Options never change a job's result — only its side effects — but a
// job carrying any side-effecting option skips the cache read so those
// side effects happen.
type JobOption func(*jobOptions)

type jobOptions struct {
	checkpoint string
	progress   sweep.Progress
	ctx        context.Context
}

// local reports whether the job carries execution-local side effects
// and therefore must actually execute.
func (o *jobOptions) local() bool {
	return o.checkpoint != "" || o.progress != nil
}

// WithJobContext attaches a cancellation context to one job. A job
// whose context is canceled while still queued never executes; a sweep
// job additionally stops between cells (sweep.RunContext). Either way
// the job fails with the context's error and the result is never
// cached. The context is a scheduling concern only — it does not make
// the job execution-local, so cache reads and single-flight dedup
// still apply. A follower deduped onto a leader whose context was
// canceled sees the leader's cancellation error and can simply
// resubmit.
func WithJobContext(ctx context.Context) JobOption {
	return func(o *jobOptions) { o.ctx = ctx }
}

// WithCheckpoint streams a sweep or search job's records to a JSONL
// checkpoint, resuming if the file exists. Jobs with a checkpoint skip
// the cache read.
func WithCheckpoint(path string) JobOption {
	return func(o *jobOptions) { o.checkpoint = path }
}

// WithProgress attaches a per-record progress callback to a sweep job.
// The callback runs on the worker goroutine executing the job.
func WithProgress(fn sweep.Progress) JobOption {
	return func(o *jobOptions) { o.progress = fn }
}
