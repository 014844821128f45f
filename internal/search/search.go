// Package search is the best-response search engine: it approximates
// sup_A u(Π, A) (Definition 1) over a first-class strategy space
// (core.StrategySpace) at a fraction of exhaustive cost, by racing /
// successive elimination over strategy arms plus branch-and-bound
// pruning over structured spaces (core.BoundedSpace).
//
// The schedule:
//
//  1. Admission. Arms are visited in descending static-upper-bound
//     order (ties in canonical space order). An arm whose bound cannot
//     beat the incumbent's certified lower bound is pruned with zero
//     estimator runs — this is the branch-and-bound step, and on
//     structured spaces it removes whole branches (every setup-abort
//     arm under a Γfair payoff, say) at once. Admitted arms get a
//     first wave of runs.
//  2. Racing. Waves grow geometrically (Wave·Growth^(w−1) runs, capped
//     so no arm exceeds RaceRuns). After each wave every surviving
//     arm's utility gets a Wilson score interval (the utility scaled to
//     [0, 1], z from the union-bound budget δ′ = δ/#checks via
//     stats.ZQuantile); an arm whose upper end falls below the leader's
//     lower end is killed. By the union bound, all eliminations are
//     jointly correct with probability ≥ 1 − δ.
//  3. Certification. The surviving leader alone is re-estimated fresh
//     at FinalRuns on its canonical arm seed — exactly the estimate the
//     exhaustive evaluation would have produced for it, so the final
//     report is byte-comparable with core.SupUtilitySpace's.
//
// Estimates are pure functions of (params, seed): per-arm seeds derive
// from FNV-1a arm keys exactly like the sweep's cell seeds, wave w of
// an arm runs at armSeed + w·7919, and the final estimate runs at the
// arm seed itself. Parallelism is spent inside each arm's estimate
// (scheduling only, per the estimator's determinism contract); the arm
// schedule itself is sequential so the checkpoint stream stays in
// canonical order.
package search

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures a search. The zero value selects the documented
// defaults; every field except the statistical knobs (Wave, Growth,
// RaceRuns, FinalRuns, Delta, MaxArms, Exhaustive) is scheduling-only
// and never changes the result.
type Options struct {
	// Wave is the first wave's per-arm run count (default 100).
	Wave int
	// Growth is the per-wave geometric growth factor (default 2).
	Growth int
	// RaceRuns caps the racing runs spent on any one arm (default 1000).
	RaceRuns int
	// FinalRuns is the winner's certification estimate (default 5000) —
	// and the per-arm cost of the exhaustive comparator.
	FinalRuns int
	// Delta is the search-wide elimination error budget (default 0.05):
	// with probability ≥ 1−Delta no elimination removed a best arm.
	Delta float64
	// MaxArms, when positive, admits at most MaxArms arms to the race
	// (the top by static bound, ties in canonical order); the rest are
	// pruned. A beam knob for huge spaces — 0 means no cap.
	MaxArms int
	// Exhaustive disables racing and pruning: every arm is estimated at
	// FinalRuns on its arm seed. This is the ground-truth comparator the
	// acceptance tests measure savings against.
	Exhaustive bool
	// PairedSeeds races the arms on common random numbers
	// (core.WithPairedSeeds): run i of every arm's racing waves draws its
	// coins from a search-wide master stream keyed by the cumulative run
	// index alone, so arms' runs pair index by index and a second
	// elimination rule applies — an arm whose paired deficit against the
	// leader (stats.PairedEstimateZ over the common run prefix) is
	// certifiably positive is killed even while both Wilson intervals
	// still overlap. The winner's certification estimate stays on the
	// canonical unpaired arm seed, so the final report remains
	// byte-comparable with the exhaustive evaluation. A statistical knob:
	// it changes racing coin sequences (and hence racing records), never
	// the certification semantics; off by default, byte-identical off.
	PairedSeeds bool

	// Parallelism is the worker count inside each arm estimate (<= 0
	// selects the estimator default).
	Parallelism int
	// BatchSize is the estimator batch size (<= 0 selects the default).
	BatchSize int
	// NoCompiledPlans disables compiled execution plans (debugging only).
	NoCompiledPlans bool
	// Checkpoint, when non-empty, streams the record sequence to this
	// JSONL file. If the file already exists it is resumed: completed
	// records replay (their measured counts substitute for simulation)
	// and the continuation is byte-identical to an uninterrupted run.
	Checkpoint string
}

func (o Options) withDefaults() Options {
	if o.Wave <= 0 {
		o.Wave = 100
	}
	if o.Growth < 1 {
		o.Growth = 2
	}
	if o.RaceRuns <= 0 {
		o.RaceRuns = 1000
	}
	if o.RaceRuns < o.Wave {
		o.RaceRuns = o.Wave
	}
	if o.FinalRuns <= 0 {
		o.FinalRuns = 5000
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		o.Delta = 0.05
	}
	return o
}

// maxWaves is the deterministic wave-count ceiling: the number of waves
// after which every arm has reached RaceRuns.
func (o Options) maxWaves() int {
	cum, per, w := 0, o.Wave, 0
	for cum < o.RaceRuns && w < 64 {
		w++
		cum += per
		per *= o.Growth
	}
	return w
}

// Arm statuses in a Report.
const (
	StatusPruned   = "pruned"   // eliminated by static bound, zero runs
	StatusKilled   = "killed"   // eliminated by interval racing
	StatusSurvivor = "survivor" // raced to the cap, not the winner
	StatusBest     = "best"     // the certified winner
)

// ArmResult is one arm's outcome, in canonical space order.
type ArmResult struct {
	Name   string  `json:"name"`
	Key    string  `json:"key"`
	Index  int     `json:"index"`
	Bound  float64 `json:"bound"` // static utility upper bound
	Runs   int64   `json:"runs"`  // estimator runs consumed (racing + certification)
	Mean   float64 `json:"mean"`  // latest utility mean (0 when pruned unseen)
	Lo     float64 `json:"lo"`    // certified interval when decided
	Hi     float64 `json:"hi"`    // for pruned arms: the static bound
	Status string  `json:"status"`
	Wave   int     `json:"wave,omitempty"` // wave of the decision (0 = admission)
	By     string  `json:"by,omitempty"`   // leader responsible for the elimination
}

// Report is a completed search.
type Report struct {
	// Params is the canonical parameter string (see ParamString).
	Params string `json:"params"`
	// Best names the certified winner.
	Best string `json:"best"`
	// BestReport is the winner's certification estimate — the same
	// estimate exhaustive enumeration produces for that arm.
	BestReport core.UtilityReport `json:"bestReport"`
	// Arms lists every arm's outcome in canonical space order.
	Arms []ArmResult `json:"arms"`
	// TotalRuns counts every estimator run the search consumed
	// (admission + racing + certification).
	TotalRuns int64 `json:"totalRuns"`
	// ExhaustiveRuns is the comparator cost: arms × FinalRuns.
	ExhaustiveRuns int64 `json:"exhaustiveRuns"`
	// Waves is the number of racing waves executed.
	Waves int `json:"waves"`
	// Delta is the elimination budget; DeltaPrime the per-check share;
	// Z the Wilson quantile eliminations used.
	Delta      float64 `json:"delta"`
	DeltaPrime float64 `json:"deltaPrime"`
	Z          float64 `json:"z"`
	// Replayed counts checkpoint records consumed instead of simulated.
	Replayed int `json:"replayed,omitempty"`
	// Metrics aggregates engine counters over every simulated run.
	Metrics sim.Metrics `json:"-"`
}

// Savings is the runs-saved ratio against exhaustive enumeration.
func (r *Report) Savings() float64 {
	if r.TotalRuns == 0 {
		return math.Inf(1)
	}
	return float64(r.ExhaustiveRuns) / float64(r.TotalRuns)
}

// keyHash is FNV-1a 64 over "params|seed=%d" — the same scheme as
// sweep.KeyHash, duplicated here (three lines) rather than imported so
// the sweep can depend on this package without a cycle.
func keyHash(params string, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|seed=%d", params, seed)
	return h.Sum64()
}

// baseParams is the statistical identity of the searched problem —
// protocol, space, payoff — without the racing knobs. Per-arm seeds
// derive from it, so an arm's certification estimate is the same
// whatever schedule visits it: the racing winner's final estimate is
// bit-identical to the exhaustive comparator's estimate of that arm.
func baseParams(protoName, space string, gamma core.Payoff) string {
	return fmt.Sprintf("search|proto=%s|space=%s|g=%g,%g,%g,%g",
		protoName, space, gamma.G00, gamma.G01, gamma.G10, gamma.G11)
}

// ParamString is the search's canonical parameter string: every knob
// that can change the result, and nothing that cannot (parallelism,
// batch size, checkpoint paths are scheduling-only). The service layer
// keys its result cache with KeyHash over exactly this string.
func ParamString(protoName, space string, gamma core.Payoff, o Options) string {
	o = o.withDefaults()
	s := fmt.Sprintf("%s|wave=%d|growth=%d|race=%d|final=%d|delta=%g|arms=%d|exh=%t",
		baseParams(protoName, space, gamma),
		o.Wave, o.Growth, o.RaceRuns, o.FinalRuns, o.Delta, o.MaxArms, o.Exhaustive)
	// Appended only when set, so every pre-CRN cache key is unchanged.
	if o.PairedSeeds {
		s += "|crn=true"
	}
	return s
}

// arm is the engine's per-arm state.
type arm struct {
	idx    int
	name   string
	key    string
	seed   int64
	adv    sim.Adversary
	bound  float64
	counts [4]int64
	runs   int64
	mean   float64
	lo, hi float64
	status string
	wave   int
	by     string
	active bool
	// vals holds the per-run payoff sequence in paired order (CRN racing
	// only): vals[i] is the payoff of master-stream run i, so two arms'
	// vals pair index by index over their common prefix.
	vals []float64
}

type engine struct {
	proto   sim.Protocol
	gamma   core.Payoff
	sampler core.InputSampler
	seed    int64
	o       Options
	values  [4]float64 // gamma over the canonical events
	gmin    float64
	span    float64
	z       float64
	arms    []*arm
	em      *emitter
	metrics sim.Metrics
	total   int64
	// paired/master configure CRN racing (Options.PairedSeeds).
	paired bool
	master int64
}

// Run executes a best-response search over the space. See the package
// comment for the schedule and RunContext for cancellation.
func Run(proto sim.Protocol, space core.StrategySpace, gamma core.Payoff,
	sampler core.InputSampler, seed int64, o Options) (*Report, error) {
	return RunContext(context.Background(), proto, space, gamma, sampler, seed, o)
}

// RunContext is Run with cancellation: ctx is checked before every
// estimate, so a canceled search stops at a record boundary — the
// checkpoint stays resumable.
func RunContext(ctx context.Context, proto sim.Protocol, space core.StrategySpace,
	gamma core.Payoff, sampler core.InputSampler, seed int64, o Options) (*Report, error) {
	if space == nil || space.Len() == 0 {
		return nil, errors.New("search: empty strategy space")
	}
	o = o.withDefaults()
	params := ParamString(proto.Name(), space.Describe(), gamma, o)

	e := &engine{proto: proto, gamma: gamma, sampler: sampler, seed: seed, o: o}
	for i, ev := range core.Events() {
		e.values[i] = gamma.Of(ev)
	}
	e.gmin, e.span = math.Inf(1), 0
	gmax := math.Inf(-1)
	for _, v := range e.values {
		e.gmin = math.Min(e.gmin, v)
		gmax = math.Max(gmax, v)
	}
	e.span = gmax - e.gmin

	bounded, _ := space.(core.BoundedSpace)
	e.arms = make([]*arm, space.Len())
	base := baseParams(proto.Name(), space.Describe(), gamma)
	keys := params
	for i := range e.arms {
		na := space.At(i)
		// Arm keys hash the schedule-free base params: the arm's seed (and
		// hence its estimates) must not depend on which schedule visits it.
		h := keyHash(base+"|arm="+na.Name, seed)
		b := gmax
		if bounded != nil {
			b = bounded.UpperBound(i, gamma)
		}
		e.arms[i] = &arm{
			idx:   i,
			name:  na.Name,
			key:   fmt.Sprintf("%016x", h),
			seed:  int64(h &^ (1 << 63)),
			adv:   na.Adv,
			bound: b,
		}
		keys += "\n" + e.arms[i].key
	}

	// Union-bound accounting: at most one interval check per arm per
	// wave, plus the admission pass and the final certificate. CRN racing
	// adds a second (paired) elimination check per arm per wave, so the
	// per-check budget halves to keep the joint guarantee.
	checks := len(e.arms) * (o.maxWaves() + 2)
	if o.PairedSeeds {
		checks *= 2
	}
	deltaPrime := o.Delta / float64(checks)
	e.z = stats.ZQuantile(deltaPrime)
	if o.PairedSeeds {
		e.paired = true
		e.master = int64(keyHash(base+"|crn", seed) &^ (1 << 63))
	}

	// Checkpointing: create fresh, or resume an existing stream. A file
	// that exists but belongs to a different search is an error, never
	// silently overwritten.
	e.em = &emitter{}
	if o.Checkpoint != "" {
		hd := header{
			Kind:    "search-header",
			Version: checkpointVersion,
			Seed:    seed,
			Arms:    len(e.arms),
			Grid:    fmt.Sprintf("%016x", keyHash(keys, seed)),
		}
		if _, statErr := os.Stat(o.Checkpoint); statErr == nil {
			recs, truncateTo, err := loadCheckpoint(o.Checkpoint, hd)
			if err != nil {
				return nil, err
			}
			cp, err := resumeCheckpoint(o.Checkpoint, truncateTo)
			if err != nil {
				return nil, err
			}
			e.em = &emitter{cp: cp, replay: recs}
		} else {
			cp, err := createCheckpoint(o.Checkpoint, hd)
			if err != nil {
				return nil, err
			}
			e.em = &emitter{cp: cp}
		}
		defer e.em.cp.close()
	}

	var rep *Report
	var err error
	if o.Exhaustive {
		rep, err = e.runExhaustive(ctx)
	} else {
		rep, err = e.runRacing(ctx)
	}
	if err != nil {
		return nil, err
	}
	rep.Params = params
	rep.ExhaustiveRuns = int64(len(e.arms)) * int64(o.FinalRuns)
	rep.TotalRuns = e.total
	rep.Delta = o.Delta
	rep.DeltaPrime = deltaPrime
	rep.Z = e.z
	rep.Replayed = e.em.pos
	rep.Metrics = e.metrics
	rep.Arms = make([]ArmResult, len(e.arms))
	for i, a := range e.arms {
		rep.Arms[i] = ArmResult{
			Name: a.name, Key: a.key, Index: a.idx, Bound: a.bound,
			Runs: a.runs, Mean: a.mean, Lo: a.lo, Hi: a.hi,
			Status: a.status, Wave: a.wave, By: a.by,
		}
	}
	return rep, nil
}

// interval recomputes an arm's cumulative mean and Wilson interval
// from its accumulated counts.
func (e *engine) interval(a *arm) error {
	est, err := stats.EstimateFromCounts(e.values[:], a.counts[:])
	if err != nil {
		return fmt.Errorf("search: arm %q: %w", a.name, err)
	}
	a.mean = est.Mean
	if e.span == 0 {
		a.lo, a.hi = a.mean, a.mean
		return nil
	}
	p := (a.mean - e.gmin) / e.span
	lo, hi := stats.WilsonScore(p, a.runs, e.z)
	a.lo = e.gmin + lo*e.span
	a.hi = e.gmin + hi*e.span
	return nil
}

// estimate runs `runs` fresh simulations of the arm at the given seed
// and returns the outcome counts. extra appends caller options (the
// CRN racing options of a paired wave).
func (e *engine) estimate(a *arm, runs int, seed int64, extra ...core.Option) ([4]int64, core.UtilityReport, error) {
	opts := []core.Option{
		core.WithParallelism(e.o.Parallelism),
		core.WithMetrics(&e.metrics),
	}
	if e.o.BatchSize > 0 {
		opts = append(opts, core.WithBatchSize(e.o.BatchSize))
	}
	if e.o.NoCompiledPlans {
		opts = append(opts, core.WithCompiledPlans(false))
	}
	opts = append(opts, extra...)
	rep, err := core.EstimateUtility(e.proto, a.adv, e.gamma, e.sampler, runs, seed, opts...)
	if err != nil {
		return [4]int64{}, core.UtilityReport{}, fmt.Errorf("search: arm %q: %w", a.name, err)
	}
	var counts [4]int64
	for i, ev := range core.Events() {
		// EventFreq is count/runs exactly; the rounding recovers the
		// integer count exactly for runs ≤ 2^52.
		counts[i] = int64(math.Round(rep.EventFreq[ev] * float64(runs)))
	}
	return counts, rep, nil
}

// wave runs (or replays) one wave of an arm: addRuns fresh runs at the
// wave seed, folded into the arm's cumulative counts. In paired (CRN)
// mode the wave draws its coins from the master stream at the arm's
// cumulative run offset and logs per-run payoffs into a.vals; a
// replayed paired wave re-simulates only to recover that log (the
// replayed counts stay authoritative — the re-measurement is the same
// deterministic computation, so nothing can disagree).
func (e *engine) waveStep(ctx context.Context, a *arm, w, addRuns int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pairedOpts := func(log []core.Event) []core.Option {
		return []core.Option{
			core.WithPairedSeeds(e.master),
			core.WithPairedOffset(int(a.runs)),
			core.WithEventLog(log),
		}
	}
	logVals := func(log []core.Event) {
		for _, ev := range log {
			a.vals = append(a.vals, e.values[ev-1])
		}
	}
	rec, replayed, err := e.em.step("wave", a.name, w, func() (Record, error) {
		var extra []core.Option
		var log []core.Event
		if e.paired {
			log = make([]core.Event, addRuns)
			extra = pairedOpts(log)
		}
		counts, _, err := e.estimate(a, addRuns, a.seed+int64(w)*7919, extra...)
		if err != nil {
			return Record{}, err
		}
		if e.paired {
			logVals(log)
		}
		for i, c := range counts {
			a.counts[i] += c
		}
		a.runs += int64(addRuns)
		if err := e.interval(a); err != nil {
			return Record{}, err
		}
		return Record{
			Kind: "wave", Arm: a.name, Key: a.key, Wave: w, Runs: addRuns,
			Events: counts, Mean: a.mean, Lo: a.lo, Hi: a.hi,
		}, nil
	})
	if err != nil {
		return err
	}
	if replayed {
		if rec.Runs != addRuns {
			return fmt.Errorf("search: checkpoint wave %d of %q has %d runs, schedule expects %d", w, a.name, rec.Runs, addRuns)
		}
		if e.paired {
			log := make([]core.Event, rec.Runs)
			if _, _, err := e.estimate(a, rec.Runs, a.seed+int64(w)*7919, pairedOpts(log)...); err != nil {
				return err
			}
			logVals(log)
		}
		for i, c := range rec.Events {
			a.counts[i] += c
		}
		a.runs += int64(rec.Runs)
		if err := e.interval(a); err != nil {
			return err
		}
	}
	e.total += int64(addRuns)
	return nil
}

// pairedDominated reports whether the leader's paired per-run advantage
// over arm a is certifiably positive: the z-widened PairedEstimate of
// lead − a over the arms' common master-stream prefix lies entirely
// above 0. Only meaningful under CRN racing (always false otherwise).
func (e *engine) pairedDominated(lead, a *arm) bool {
	if !e.paired {
		return false
	}
	m := len(lead.vals)
	if len(a.vals) < m {
		m = len(a.vals)
	}
	if m < 2 {
		return false
	}
	est, err := stats.PairedEstimateZ(lead.vals[:m], a.vals[:m], e.z)
	if err != nil {
		return false
	}
	return est.Lo() > 0
}

// leader returns the active arm with the greatest mean, ties broken in
// canonical order. Never-estimated arms (zero runs) and NaN means never
// lead.
func (e *engine) leader() *arm {
	var best *arm
	for _, a := range e.arms {
		if !a.active || a.runs == 0 || math.IsNaN(a.mean) {
			continue
		}
		if best == nil || a.mean > best.mean {
			best = a
		}
	}
	return best
}

func (e *engine) runRacing(ctx context.Context) (*Report, error) {
	o := e.o
	// Admission: descending static bound, ties in canonical order.
	order := make([]*arm, len(e.arms))
	copy(order, e.arms)
	sort.SliceStable(order, func(i, j int) bool { return order[i].bound > order[j].bound })

	admitted := 0
	incumbentLo := math.Inf(-1)
	incumbentBy := ""
	for _, a := range order {
		capped := o.MaxArms > 0 && admitted >= o.MaxArms
		if a.bound < incumbentLo || capped {
			by := incumbentBy
			if capped {
				by = "arms-cap"
			}
			rec, _, err := e.em.step("prune", a.name, 0, func() (Record, error) {
				return Record{
					Kind: "prune", Arm: a.name, Key: a.key,
					Hi: a.bound, Bound: a.bound, By: by,
				}, nil
			})
			if err != nil {
				return nil, err
			}
			a.status, a.by, a.hi = StatusPruned, rec.By, a.bound
			continue
		}
		if err := e.waveStep(ctx, a, 1, o.Wave); err != nil {
			return nil, err
		}
		a.active = true
		admitted++
		if a.lo > incumbentLo {
			incumbentLo, incumbentBy = a.lo, a.name
		}
	}
	if admitted == 0 {
		return nil, errors.New("search: no arm admitted (all pruned)")
	}

	// Racing waves.
	waves := 1
	per := o.Wave
	for w := 2; w <= o.maxWaves(); w++ {
		lead := e.leader()
		if lead == nil {
			return nil, errors.New("search: no comparable arm (all means NaN)")
		}
		// Elimination pass: kill any active arm whose certified upper end
		// (interval or static bound) falls below the leader's lower end —
		// or, under CRN racing, whose paired per-run deficit against the
		// leader is certifiably positive over the common run prefix (the
		// pairing cancels the shared coin noise, so correlated arms
		// separate waves earlier than their Wilson intervals do).
		for _, a := range e.arms {
			if !a.active || a == lead {
				continue
			}
			if math.Min(a.hi, a.bound) < lead.lo || e.pairedDominated(lead, a) {
				lo := lead.lo
				_, _, err := e.em.step("kill", a.name, w-1, func() (Record, error) {
					return Record{
						Kind: "kill", Arm: a.name, Key: a.key, Wave: w - 1,
						Mean: a.mean, Lo: a.lo, Hi: a.hi,
						Bound: lo, By: lead.name,
					}, nil
				})
				if err != nil {
					return nil, err
				}
				a.active = false
				a.status, a.wave, a.by = StatusKilled, w-1, lead.name
			}
		}
		active := 0
		for _, a := range e.arms {
			if a.active {
				active++
			}
		}
		if active <= 1 {
			break
		}
		per *= o.Growth
		progressed := false
		for _, a := range e.arms {
			if !a.active {
				continue
			}
			add := per
			if int64(add) > int64(o.RaceRuns)-a.runs {
				add = int(int64(o.RaceRuns) - a.runs)
			}
			if add <= 0 {
				continue
			}
			if err := e.waveStep(ctx, a, w, add); err != nil {
				return nil, err
			}
			progressed = true
		}
		if !progressed {
			break
		}
		waves = w
	}

	// Certification: the surviving leader gets a fresh estimate at the
	// canonical arm seed — exactly the exhaustive evaluation's estimate.
	winner := e.leader()
	if winner == nil {
		return nil, errors.New("search: no comparable arm (all means NaN)")
	}
	for _, a := range e.arms {
		if a.active && a != winner {
			a.status = StatusSurvivor
		}
	}
	best, err := e.finalStep(ctx, winner)
	if err != nil {
		return nil, err
	}
	winner.status = StatusBest
	return &Report{Best: winner.name, BestReport: best, Waves: waves}, nil
}

// finalStep runs (or replays) an arm's certification estimate.
func (e *engine) finalStep(ctx context.Context, a *arm) (core.UtilityReport, error) {
	if err := ctx.Err(); err != nil {
		return core.UtilityReport{}, err
	}
	var fresh *core.UtilityReport
	rec, replayed, err := e.em.step("final", a.name, 0, func() (Record, error) {
		counts, rep, err := e.estimate(a, e.o.FinalRuns, a.seed)
		if err != nil {
			return Record{}, err
		}
		fresh = &rep
		return Record{
			Kind: "final", Arm: a.name, Key: a.key, Runs: e.o.FinalRuns,
			Events: counts, Mean: rep.Utility.Mean,
			Lo: rep.Utility.Lo(), Hi: rep.Utility.Hi(),
		}, nil
	})
	if err != nil {
		return core.UtilityReport{}, err
	}
	e.total += int64(e.o.FinalRuns)
	var rep core.UtilityReport
	if replayed {
		if rec.Runs != e.o.FinalRuns {
			return core.UtilityReport{}, fmt.Errorf("search: checkpoint final of %q has %d runs, schedule expects %d",
				a.name, rec.Runs, e.o.FinalRuns)
		}
		rep, err = e.reportFromCounts(rec.Events, rec.Runs)
		if err != nil {
			return core.UtilityReport{}, err
		}
	} else {
		rep = *fresh
	}
	// The arm's reported interval becomes the certification interval.
	a.runs += int64(rec.Runs)
	a.mean = rep.Utility.Mean
	a.lo, a.hi = rep.Utility.Lo(), rep.Utility.Hi()
	return rep, nil
}

// reportFromCounts reconstructs a certification report from replayed
// counts. Utility, event frequencies, and run count are exact; the
// diagnostic rates (violations, breaches, corrupted) and engine metrics
// are not recorded in the checkpoint and come back zero.
func (e *engine) reportFromCounts(counts [4]int64, runs int) (core.UtilityReport, error) {
	est, err := stats.EstimateFromCounts(e.values[:], counts[:])
	if err != nil {
		return core.UtilityReport{}, err
	}
	freq := make(map[core.Event]float64, 4)
	for i, ev := range core.Events() {
		freq[ev] = float64(counts[i]) / float64(runs)
	}
	return core.UtilityReport{Utility: est, EventFreq: freq, Runs: runs}, nil
}

func (e *engine) runExhaustive(ctx context.Context) (*Report, error) {
	var best *arm
	var bestRep core.UtilityReport
	for _, a := range e.arms {
		rep, err := e.finalStep(ctx, a)
		if err != nil {
			return nil, err
		}
		a.status = StatusSurvivor
		if math.IsNaN(rep.Utility.Mean) {
			continue
		}
		if best == nil || rep.Utility.Mean > bestRep.Utility.Mean {
			best, bestRep = a, rep
		}
	}
	if best == nil {
		return nil, errors.New("search: no strategy produced a comparable utility")
	}
	best.status = StatusBest
	return &Report{Best: best.name, BestReport: bestRep}, nil
}
