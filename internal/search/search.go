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
//     estimator runs — this is the branch-and-bound step. Pruning is
//     arm by arm on core.BoundedSpace.UpperBound; arms of one branch
//     share a bound (every setup-abort arm under a Γfair payoff, say),
//     so they fall together. Admitted arms get a first wave of runs.
//  2. Racing. Waves grow geometrically (Wave·Growth^(w−1) runs, capped
//     so no arm exceeds RaceRuns). After each wave every surviving
//     arm's utility gets a Wilson score interval (the utility scaled to
//     [0, 1], z from the union-bound budget δ′ = δ/#checks via
//     stats.ZQuantile); an arm whose upper end falls below the leader's
//     lower end is killed. By the union bound, all eliminations are
//     jointly correct with probability ≥ 1 − δ.
//  3. Certification. The surviving leader alone is re-estimated fresh
//     at FinalRuns on its canonical arm seed, which no racing wave draws
//     from. The comparator is core.SupUtilitySpace, the one exhaustive
//     evaluation; it seeds strategy i at seed + i·7919, not at the arm
//     seed, so the two reports agree within their intervals, not bit
//     for bit.
//
// Estimates are pure functions of (params, seed): per-arm seeds derive
// from FNV-1a arm keys exactly like the sweep's cell seeds, wave w of
// an arm runs at armSeed + w·7919, and the final estimate runs at the
// arm seed itself. The estimates of one batch — an admission group of
// equal-bound arms (cut at MaxArms), a racing wave's active arms, the
// certification — run side by side in one core.EstimateJobs call, one
// arm per worker while arms remain and split across workers after.
// Decisions and records then follow in canonical order, so parallelism
// is scheduling only: the report and the checkpoint stream are the same
// at every worker count.
package search

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/jsonl"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures a search. The zero value selects the documented
// defaults; every field except the statistical knobs (Wave, Growth,
// RaceRuns, FinalRuns, Delta, MaxArms) is scheduling-only and never
// changes the result.
type Options struct {
	// Wave is the first wave's per-arm run count (default 100).
	Wave int
	// Growth is the per-wave geometric growth factor (default 2).
	Growth int
	// RaceRuns caps the racing runs spent on any one arm (default 1000).
	RaceRuns int
	// FinalRuns is the winner's certification estimate (default 5000) —
	// and the per-arm cost of the exhaustive comparator
	// (core.SupUtilitySpace at FinalRuns runs).
	FinalRuns int
	// Delta is the search-wide elimination error budget (default 0.05):
	// with probability ≥ 1−Delta no elimination removed a best arm.
	Delta float64
	// MaxArms, when positive, admits at most MaxArms arms to the race
	// (the top by static bound, ties in canonical order); the rest are
	// pruned. A beam knob for huge spaces — 0 means no cap.
	MaxArms int

	// Parallelism is the worker count each batch of estimates shares
	// (<= 0 selects the estimator default).
	Parallelism int
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
	// BestReport is the winner's certification estimate: FinalRuns fresh
	// runs at the winner's arm seed (the low 63 bits of its Key).
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
// whatever schedule visits it.
func baseParams(protoName, space string, gamma core.Payoff) string {
	return fmt.Sprintf("search|proto=%s|space=%s|g=%g,%g,%g,%g",
		protoName, space, gamma.G00, gamma.G01, gamma.G10, gamma.G11)
}

// ParamString is the search's canonical parameter string: every knob
// that can change the result, and nothing that cannot (parallelism and
// checkpoint paths are scheduling-only). The service layer
// keys its result cache with KeyHash over exactly this string.
func ParamString(protoName, space string, gamma core.Payoff, o Options) string {
	o = o.withDefaults()
	// "exh=false" names a retired mode; it stays so keys keep their bytes.
	return fmt.Sprintf("%s|wave=%d|growth=%d|race=%d|final=%d|delta=%g|arms=%d|exh=false",
		baseParams(protoName, space, gamma),
		o.Wave, o.Growth, o.RaceRuns, o.FinalRuns, o.Delta, o.MaxArms)
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
	// wave, plus the admission pass and the final certificate.
	checks := len(e.arms) * (o.maxWaves() + 2)
	deltaPrime := o.Delta / float64(checks)
	e.z = stats.ZQuantile(deltaPrime)

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
		cp, recs, err := jsonl.Open[Record](o.Checkpoint, "search", hd, nil)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		e.em = &emitter{cp: cp, replay: recs}
	}

	rep, err := e.runRacing(ctx)
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

// step is one upcoming estimate — one record of the stream — and,
// once its batch has been simulated, its result.
type step struct {
	a    *arm
	runs int
	seed int64
	rep  *core.JobReport
}

// estimate returns the estimate of steps[i]. The steps of one batch
// (an admission group, a racing wave, the certification) are their
// records in stream order; the first one past the checkpoint's replay
// prefix simulates it and every later step of the batch side by side
// in one core.EstimateJobs call. A step the schedule then prunes leaves
// its estimate unused: its runs, metrics and record never count.
func (e *engine) estimate(steps []step, i int) (*core.JobReport, error) {
	if steps[i].rep == nil {
		rest := steps[i:]
		jobs := make([]core.Job, len(rest))
		for k, st := range rest {
			jobs[k] = core.Job{Adv: st.a.adv, Runs: st.runs, Seed: st.seed}
		}
		reps := core.EstimateJobs(e.proto, jobs, e.gamma, e.sampler, core.WithParallelism(e.o.Parallelism))
		for k := range rest {
			rest[k].rep = &reps[k]
		}
	}
	rep := steps[i].rep
	if rep.Err != nil {
		return nil, fmt.Errorf("search: arm %q: %w", steps[i].a.name, rep.Err)
	}
	e.metrics.Add(rep.Metrics)
	return rep, nil
}

// waveStep runs (or replays) steps[i], one wave of its arm: fresh runs
// at the wave seed, folded into the arm's cumulative counts.
func (e *engine) waveStep(ctx context.Context, steps []step, i, w int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a, addRuns := steps[i].a, steps[i].runs
	rec, replayed, err := e.em.step("wave", a.name, w, func() (Record, error) {
		rep, err := e.estimate(steps, i)
		if err != nil {
			return Record{}, err
		}
		for k, c := range rep.Events {
			a.counts[k] += c
		}
		a.runs += int64(addRuns)
		if err := e.interval(a); err != nil {
			return Record{}, err
		}
		return Record{
			Kind: "wave", Arm: a.name, Key: a.key, Wave: w, Runs: addRuns,
			Events: rep.Events, Mean: a.mean, Lo: a.lo, Hi: a.hi,
		}, nil
	})
	if err != nil {
		return err
	}
	if replayed {
		if rec.Runs != addRuns {
			return fmt.Errorf("search: checkpoint wave %d of %q has %d runs, schedule expects %d", w, a.name, rec.Runs, addRuns)
		}
		for k, c := range rec.Events {
			a.counts[k] += c
		}
		a.runs += int64(rec.Runs)
		if err := e.interval(a); err != nil {
			return err
		}
	}
	e.total += int64(addRuns)
	return nil
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
	for g := 0; g < len(order); {
		// One group of equal-bound arms at a time. The arms it admits
		// are a prefix of it — the incumbent only rises, and an
		// admitted arm's interval never tops the group's bound when its
		// samples respect that bound — so that prefix, cut at MaxArms,
		// is estimated side by side before the decisions replay in
		// bound order.
		end := g + 1
		for end < len(order) && order[end].bound == order[g].bound {
			end++
		}
		group := order[g:end]
		g = end
		cut := len(group)
		if group[0].bound < incumbentLo {
			cut = 0
		}
		if o.MaxArms > 0 {
			cut = max(0, min(cut, o.MaxArms-admitted))
		}
		steps := make([]step, cut)
		for i, a := range group[:cut] {
			steps[i] = step{a: a, runs: o.Wave, seed: a.seed + 7919}
		}
		for i, a := range group {
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
			if err := e.waveStep(ctx, steps, i, 1); err != nil {
				return nil, err
			}
			a.active = true
			admitted++
			if a.lo > incumbentLo {
				incumbentLo, incumbentBy = a.lo, a.name
			}
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
		// (interval or static bound) falls below the leader's lower end.
		for _, a := range e.arms {
			if !a.active || a == lead {
				continue
			}
			if math.Min(a.hi, a.bound) < lead.lo {
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
		// The wave: every active arm below the racing cap, side by side.
		per *= o.Growth
		var steps []step
		for _, a := range e.arms {
			if !a.active {
				continue
			}
			add := per
			if int64(add) > int64(o.RaceRuns)-a.runs {
				add = int(int64(o.RaceRuns) - a.runs)
			}
			if add > 0 {
				steps = append(steps, step{a: a, runs: add, seed: a.seed + int64(w)*7919})
			}
		}
		if len(steps) == 0 {
			break
		}
		for i := range steps {
			if err := e.waveStep(ctx, steps, i, w); err != nil {
				return nil, err
			}
		}
		waves = w
	}

	// Certification: the surviving leader gets a fresh estimate at the
	// canonical arm seed.
	winner := e.leader()
	if winner == nil {
		return nil, errors.New("search: no comparable arm (all means NaN)")
	}
	for _, a := range e.arms {
		if a.active && a != winner {
			a.status = StatusSurvivor
		}
	}
	best, err := e.finalStep(ctx, []step{{a: winner, runs: e.o.FinalRuns, seed: winner.seed}}, 0)
	if err != nil {
		return nil, err
	}
	winner.status = StatusBest
	return &Report{Best: winner.name, BestReport: best, Waves: waves}, nil
}

// finalStep runs (or replays) steps[i], a certification estimate of
// its arm at FinalRuns on the arm seed.
func (e *engine) finalStep(ctx context.Context, steps []step, i int) (core.UtilityReport, error) {
	if err := ctx.Err(); err != nil {
		return core.UtilityReport{}, err
	}
	a := steps[i].a
	var fresh *core.UtilityReport
	rec, replayed, err := e.em.step("final", a.name, 0, func() (Record, error) {
		rep, err := e.estimate(steps, i)
		if err != nil {
			return Record{}, err
		}
		fresh = &rep.UtilityReport
		return Record{
			Kind: "final", Arm: a.name, Key: a.key, Runs: e.o.FinalRuns,
			Events: rep.Events, Mean: rep.Utility.Mean,
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
