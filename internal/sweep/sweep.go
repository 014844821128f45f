// Package sweep is the bound-certifying parameter-sweep engine: it
// turns the paper's closed-form theorems (Theorems 3–6, Lemmas 11–18,
// Theorems 23/24) into a standing regression oracle for the Monte-Carlo
// estimator.
//
// A sweep enumerates a deterministic grid over (protocol family, payoff
// vector γ, party count n, corruption threshold t, attacker — including
// an abort-round sweep — and cost function), measures every cell with
// the options-based core.EstimateUtility / core.SupUtility on the
// batched estimation engine, and certifies the estimate against the
// applicable closed-form bound using the estimate's confidence interval
// widened to a sweep-wide union-bound margin, plus flat slack. Any
// breach fails the sweep.
//
// Determinism contract (the PR-4 contract extended to the grid): every
// cell is keyed by a hash of (cell parameters, sweep seed), the cell's
// estimation seed is derived from that hash, and cells are executed and
// checkpointed in canonical grid order — so re-running, or interrupting
// and resuming from the JSONL checkpoint, yields byte-identical cell
// records. Parallelism lives inside each cell (the estimator's worker
// pool), never across cells, which keeps the checkpoint stream ordered
// without a reorder buffer.
//
// Statistical contract: with adaptive sampling (Spec.Runs == 0) each
// cell's run count is sized by stats.SamplesFor so its certification
// margin reaches Spec.TargetHW at confidence 1 − δ′, where
// δ′ = Spec.Delta / (total checks) — a union bound making Spec.Delta the
// false-breach budget for the whole sweep, not per cell.
package sweep

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/stats"
)

// Spec describes one sweep grid. The zero value is not runnable; use
// DefaultSpec or fill in at least Families, Gammas and Ns.
type Spec struct {
	// Families lists the protocol families to sweep (see families.go):
	// "2sfe", "oneround", "pi1", "pi2", "optn", "gmwhalf", "gk".
	Families []string
	// Gammas are the payoff vectors γ; every vector must be in Γ+fair
	// (the regime the certified bounds are proved in).
	Gammas []core.Payoff
	// Ns are the party counts for the multi-party families. Two-party
	// families instantiate only at n = 2 (other n are counted as skipped).
	Ns []int
	// Ts restricts the corruption thresholds; nil means every t in
	// 1..n−1. Aggregate per-t sum records are emitted only for (γ, n)
	// combinations whose full threshold range is present.
	Ts []int
	// Ps are the Gordon–Katz 1/p parameters for the "gk" family.
	Ps []int
	// Costs lists corruption-cost functions applied per cell: "zero"
	// (free corruption — certifies the raw bound) and "optimal" (the
	// Theorem 6 closed-form cost c(t) = bound(t) − IdealBound(γ), which
	// additionally certifies ideal ~γ^C-fairness: u − c(t) ≤ IdealBound).
	Costs []string
	// AbortSweep adds an abort-at-round attacker for every round
	// r = 1..NumRounds+1 — the grid's round dimension.
	AbortSweep bool
	// SupRuns, when > 0, adds one sup-search cell per (family, γ, n, t)
	// running core.SupUtilitySpace over the standard strategy space with
	// this many runs per strategy.
	SupRuns int
	// SupSearch computes the sup cells with the racing best-response
	// search engine (internal/search) instead of exhaustive enumeration:
	// the certified winner is estimated at SupRuns resolution, dominated
	// strategies are eliminated early. Cells get Adv "sup-search" — a
	// distinct key — so records never collide with the frozen "sup"
	// matrix.
	SupSearch bool

	// Runs is the flat per-cell run count; 0 selects adaptive sampling.
	Runs int
	// TargetHW is the adaptive-sampling target certification margin.
	TargetHW float64
	// Delta is the sweep-wide false-breach probability budget.
	Delta float64
	// MinRuns/MaxRuns clamp adaptive run counts.
	MinRuns, MaxRuns int
	// Slack is flat extra tolerance added to every certification.
	Slack float64
	// Seed drives all randomness; same (Spec, Seed) ⇒ same bytes out.
	Seed int64
	// Parallelism is the per-cell estimator worker count (0 = one per
	// CPU). It never changes any record — see core.EstimateUtility.
	Parallelism int
	// BatchSize is the estimator batch size (0 = default).
	BatchSize int
	// NoCompiledPlans disables the estimator's compiled execution plans
	// (core.WithCompiledPlans), pinning every cell to the interpreter.
	// Like Parallelism it never changes any record — compiled runs are
	// bit-identical — so it exists only for engine debugging.
	NoCompiledPlans bool

	// PairedSeeds switches every cell to common-random-numbers run
	// seeding (core.WithPairedSeeds): run i of every cell draws its coins
	// from a sweep-wide master stream keyed by the run index alone, so
	// neighbouring cells' runs pair and the sweep emits extra "delta"
	// records certifying cross-cell differences (currently the
	// Gordon–Katz consecutive-p deltas at the Section 5 payoff) through
	// stats.PairedEstimate. Unlike the scheduling knobs this changes the
	// coin sequences, so paired records are NOT byte-comparable to the
	// frozen unpaired matrices; with the flag off the output is
	// byte-identical to before the flag existed.
	PairedSeeds bool
	// ControlVariates enables exact-residual estimation
	// (core.WithControlVariate) on cells backed by an exact law —
	// currently the Gordon–Katz first-hit cells, whose E10 probability is
	// core.GKFirstHitExact. The cell then samples only the payoff's
	// residual against the law, reaching the same certified margin at a
	// fraction of the variance (at the Section 5 payoff the residual is
	// identically zero and the estimate is exact). Means change only
	// within the estimator's confidence interval, but the records' bytes
	// differ — off by default, byte-identical when off.
	ControlVariates bool
}

// DefaultSpec is the full standing grid: every family, three Γ+fair
// payoff points, n up to 5, both cost functions, abort-round sweep on.
func DefaultSpec() Spec {
	return Spec{
		Families:   []string{"2sfe", "oneround", "pi1", "pi2", "optn", "gmwhalf", "gk"},
		Gammas:     StandardGammas(),
		Ns:         []int{2, 3, 4, 5},
		Ps:         []int{2, 4, 8},
		Costs:      []string{"zero", "optimal"},
		AbortSweep: true,
		TargetHW:   0.05,
		Delta:      0.01,
		MinRuns:    200,
		MaxRuns:    20000,
		Seed:       20150302,
	}
}

// StandardGammas returns the three Γ+fair payoff points the standing
// grid evaluates: the EXPERIMENTS.md vector (0,0,1,½), the Section 5
// Gordon–Katz vector (0,0,1,0), and an interior point with γ00 > 0.
func StandardGammas() []core.Payoff {
	return []core.Payoff{
		core.StandardPayoff(),
		core.GordonKatzPayoff(),
		{G00: 0.25, G01: 0, G10: 1, G11: 0.75},
	}
}

// Cell is one grid point: a (protocol, γ, n, t, attacker, cost[, p])
// tuple plus the derived run count and estimation seed.
type Cell struct {
	Index  int
	Family string
	Gamma  core.Payoff
	N, T   int
	// Adv names the attacker: "lock", "setup", "gmwsetup", "abort@r",
	// "firsthit", "sup" (an exhaustive sup-search over the standard
	// space), or "sup-search" (the same sup via the racing engine).
	Adv  string
	Cost string
	// P is the Gordon–Katz 1/p parameter (gk family only).
	P int
	// Runs is the cell's Monte-Carlo run count (adaptive or flat).
	Runs int
	// Seed is the cell's estimation seed, derived from the key hash.
	Seed int64
	// Key is the deterministic hash of (cell params, sweep seed).
	Key string
}

// paramString is the canonical parameter encoding hashed into Key.
func (c Cell) paramString() string {
	return fmt.Sprintf("%s|g=%s|n=%d|t=%d|adv=%s|cost=%s|p=%d",
		c.Family, gammaString(c.Gamma), c.N, c.T, c.Adv, c.Cost, c.P)
}

func gammaString(g core.Payoff) string {
	return fmt.Sprintf("%g,%g,%g,%g", g.G00, g.G01, g.G10, g.G11)
}

// KeyHash hashes a canonical parameter string together with a seed
// (FNV-1a 64). It is the sweep's cell-key function, exported so the
// service layer can key its result cache with the identical scheme:
// same canonical params + same seed ⇒ same key ⇒ (by the estimator's
// determinism contract) same result.
func KeyHash(params string, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|seed=%d", params, seed)
	return h.Sum64()
}

// sumPlan is one planned aggregate record: the per-t utility sum of one
// (family, γ, n) at the first cost point, certified against the
// balanced-sum bound (optn, Lemma 14) or the Lemma 17 lower bound
// (gmwhalf, even n).
type sumPlan struct {
	Family  string
	Gamma   core.Payoff
	N       int
	Cost    string
	cellIdx []int // the contributing per-t cells, t = 1..n−1
	Key     string
}

func (p sumPlan) paramString() string {
	return fmt.Sprintf("sum|%s|g=%s|n=%d|cost=%s",
		p.Family, gammaString(p.Gamma), p.N, p.Cost)
}

// deltaPlan is one planned cross-cell delta record (PairedSeeds only):
// the paired per-run difference of cell A minus cell B, certified with
// stats.PairedEstimate over the cells' shared coin sequences.
type deltaPlan struct {
	A, B int // indices into Sweep.Cells
	Key  string
}

func deltaParamString(a, b Cell) string {
	return fmt.Sprintf("delta|%s||%s", a.paramString(), b.paramString())
}

// Sweep is a planned grid ready to run or resume.
type Sweep struct {
	Spec  Spec
	Cells []Cell
	Sums  []sumPlan
	// Deltas are the planned paired cross-cell records; empty unless
	// Spec.PairedSeeds is set.
	Deltas []deltaPlan
	// Skipped lists (family, n) combinations the grid could not
	// instantiate (e.g. a two-party family at n = 5) — surfaced, not
	// silently dropped.
	Skipped []string
	// deltaPrime is the per-check confidence budget Delta/totalChecks.
	deltaPrime float64
	// totalChecks counts every certification in the sweep (union bound).
	totalChecks int
	// pairedMaster seeds the sweep-wide CRN stream (PairedSeeds only).
	pairedMaster int64
}

// Records returns the number of records a complete run writes (cells +
// aggregate sums + paired deltas, excluding the header).
func (s *Sweep) Records() int { return len(s.Cells) + len(s.Sums) + len(s.Deltas) }

// TotalChecks returns the number of certifications across the sweep.
func (s *Sweep) TotalChecks() int { return s.totalChecks }

// advsFor lists the attacker kinds for one family cell.
func (s Spec) advsFor(family string, rounds int) []string {
	if family == "gk" {
		return []string{"firsthit"}
	}
	advs := []string{"lock"}
	if hasSetup(family) {
		advs = append(advs, "setup")
	}
	if family == "gmwhalf" {
		advs = append(advs, "gmwsetup")
	}
	if s.AbortSweep {
		for r := 1; r <= rounds+1; r++ {
			advs = append(advs, fmt.Sprintf("abort@%d", r))
		}
	}
	if s.SupRuns > 0 {
		if s.SupSearch {
			advs = append(advs, "sup-search")
		} else {
			advs = append(advs, "sup")
		}
	}
	return advs
}

// checksFor counts the certifications a cell performs: the family bound,
// the ideal-cost check for cost="optimal", and the gk extras (Wilson
// Pr[E10] ceiling; exact first-hit cross-check at the Section 5 vector).
func checksFor(c Cell) int {
	n := 1
	if c.Cost == "optimal" {
		n++
	}
	if c.Family == "gk" {
		n++ // Wilson Pr[E10] ≤ 1/p
		if c.Gamma == core.GordonKatzPayoff() {
			n++ // exact GKFirstHitExact cross-check
		}
	}
	return n
}

// span is the payoff range max γ_ij − min γ_ij: utilities are
// [min, max]-bounded, which scales the Hoeffding margins.
func span(g core.Payoff) float64 {
	lo := math.Min(math.Min(g.G00, g.G01), math.Min(g.G10, g.G11))
	hi := math.Max(math.Max(g.G00, g.G01), math.Max(g.G10, g.G11))
	if hi == lo {
		return 1
	}
	return hi - lo
}

func withDefaults(spec Spec) Spec {
	if spec.TargetHW <= 0 {
		spec.TargetHW = 0.05
	}
	if spec.Delta <= 0 {
		spec.Delta = 0.01
	}
	if spec.MinRuns <= 0 {
		spec.MinRuns = 200
	}
	if spec.MaxRuns <= 0 {
		spec.MaxRuns = 20000
	}
	if len(spec.Costs) == 0 {
		spec.Costs = []string{"zero"}
	}
	if len(spec.Ps) == 0 {
		spec.Ps = []int{2, 4}
	}
	return spec
}

// Plan validates the spec and enumerates the grid in canonical order:
// family → γ → (p | n → t) → attacker → cost, then the aggregate sum
// records. The enumeration, the per-cell run counts, and every seed are
// pure functions of (Spec, Seed).
func Plan(spec Spec) (*Sweep, error) {
	spec = withDefaults(spec)
	if len(spec.Families) == 0 {
		return nil, fmt.Errorf("sweep: no families")
	}
	if len(spec.Gammas) == 0 {
		return nil, fmt.Errorf("sweep: no payoff vectors")
	}
	for _, f := range spec.Families {
		if !knownFamily(f) {
			return nil, fmt.Errorf("sweep: unknown family %q (known: %v)", f, familyOrder)
		}
	}
	for _, g := range spec.Gammas {
		if err := g.ValidateFairPlus(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	for _, n := range spec.Ns {
		if n < 2 {
			return nil, fmt.Errorf("sweep: party count n=%d out of range (need n ≥ 2)", n)
		}
	}
	for _, t := range spec.Ts {
		if t < 1 {
			return nil, fmt.Errorf("sweep: corruption threshold t=%d out of range (need t ≥ 1)", t)
		}
	}
	for _, p := range spec.Ps {
		if p < 2 {
			return nil, fmt.Errorf("sweep: Gordon–Katz p=%d out of range (need p ≥ 2)", p)
		}
	}
	for _, c := range spec.Costs {
		if c != "zero" && c != "optimal" {
			return nil, fmt.Errorf("sweep: unknown cost function %q (known: zero, optimal)", c)
		}
	}
	needsN := false
	for _, f := range spec.Families {
		if !twoPartyOnly(f) {
			needsN = true
		}
	}
	if len(spec.Ns) == 0 {
		if needsN {
			return nil, fmt.Errorf("sweep: no party counts")
		}
		spec.Ns = []int{2}
	}

	tSelected := func(t int) bool {
		if len(spec.Ts) == 0 {
			return true
		}
		for _, want := range spec.Ts {
			if want == t {
				return true
			}
		}
		return false
	}

	sw := &Sweep{Spec: spec}
	skipped := map[string]bool{}
	addCell := func(c Cell) {
		c.Index = len(sw.Cells)
		sw.Cells = append(sw.Cells, c)
	}
	for _, fam := range spec.Families {
		for _, g := range spec.Gammas {
			if fam == "gk" {
				for _, p := range spec.Ps {
					if _, err := buildProtocol(fam, 2, p); err != nil {
						return nil, fmt.Errorf("sweep: %s p=%d: %w", fam, p, err)
					}
					for _, cost := range spec.Costs {
						addCell(Cell{Family: fam, Gamma: g, N: 2, T: 1,
							Adv: "firsthit", Cost: cost, P: p})
					}
				}
				continue
			}
			for _, n := range spec.Ns {
				if twoPartyOnly(fam) && n != 2 {
					skipped[fmt.Sprintf("%s at n=%d (two-party family)", fam, n)] = true
					continue
				}
				proto, err := buildProtocol(fam, n, 0)
				if err != nil {
					return nil, fmt.Errorf("sweep: %s n=%d: %w", fam, n, err)
				}
				for t := 1; t < n; t++ {
					if !tSelected(t) {
						continue
					}
					for _, adv := range spec.advsFor(fam, proto.NumRounds()) {
						for _, cost := range spec.Costs {
							addCell(Cell{Family: fam, Gamma: g, N: n, T: t,
								Adv: adv, Cost: cost})
						}
					}
				}
			}
		}
	}
	if len(sw.Cells) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}

	// Aggregate per-t sums: optn (balanced-sum upper bound, Lemma 14) and
	// gmwhalf at even n (the Lemma 17 lower bound, via the setup
	// attacker's step profile). Only complete threshold ranges qualify.
	sumAdv := map[string]string{"optn": "lock", "gmwhalf": "gmwsetup"}
	cellAt := make(map[string]int, len(sw.Cells))
	for i, c := range sw.Cells {
		cellAt[c.paramString()] = i
	}
	for _, fam := range spec.Families {
		adv, ok := sumAdv[fam]
		if !ok {
			continue
		}
		if fam == "gmwhalf" {
			// The closed-form sum bound (Lemma 17) is for even n only.
			adv = sumAdv[fam]
		}
		for _, g := range spec.Gammas {
			for _, n := range spec.Ns {
				if fam == "gmwhalf" && n%2 != 0 {
					continue
				}
				plan := sumPlan{Family: fam, Gamma: g, N: n, Cost: spec.Costs[0]}
				complete := true
				for t := 1; t < n; t++ {
					probe := Cell{Family: fam, Gamma: g, N: n, T: t,
						Adv: adv, Cost: spec.Costs[0]}
					idx, ok := cellAt[probe.paramString()]
					if !ok {
						complete = false
						break
					}
					plan.cellIdx = append(plan.cellIdx, idx)
				}
				if !complete || len(plan.cellIdx) == 0 {
					continue
				}
				plan.Key = fmt.Sprintf("%016x", KeyHash(plan.paramString(), spec.Seed))
				sw.Sums = append(sw.Sums, plan)
			}
		}
	}

	// Paired cross-cell deltas (PairedSeeds only): consecutive-p
	// Gordon–Katz first-hit cells at the Section 5 payoff, first cost
	// point — the pairs whose difference has an exact closed form
	// (GKFirstHitExact) to certify against. Both members share γ, so
	// adaptive sampling gives them identical run counts and their
	// per-run outcomes pair index by index.
	if spec.PairedSeeds {
		var gkIdx []int
		for i, c := range sw.Cells {
			if c.Family == "gk" && c.Adv == "firsthit" &&
				c.Gamma == core.GordonKatzPayoff() && c.Cost == spec.Costs[0] {
				gkIdx = append(gkIdx, i)
			}
		}
		for j := 0; j+1 < len(gkIdx); j++ {
			sw.Deltas = append(sw.Deltas, deltaPlan{A: gkIdx[j], B: gkIdx[j+1]})
		}
		sw.pairedMaster = int64(KeyHash("paired-master", spec.Seed) &^ (1 << 63))
	}

	// Union-bound confidence budget, then adaptive (or flat) run counts
	// and derived per-cell seeds.
	for i := range sw.Cells {
		sw.totalChecks += checksFor(sw.Cells[i])
	}
	sw.totalChecks += len(sw.Sums)
	sw.totalChecks += 2 * len(sw.Deltas) // nonneg + exact per delta
	sw.deltaPrime = spec.Delta / float64(sw.totalChecks)
	for i := range sw.Cells {
		c := &sw.Cells[i]
		if c.Adv == "sup" || c.Adv == "sup-search" {
			c.Runs = spec.SupRuns
		} else if spec.Runs > 0 {
			c.Runs = spec.Runs
		} else {
			eps := spec.TargetHW / span(c.Gamma)
			runs := stats.SamplesFor(eps, sw.deltaPrime)
			if runs < spec.MinRuns {
				runs = spec.MinRuns
			}
			if runs > spec.MaxRuns {
				runs = spec.MaxRuns
			}
			c.Runs = runs
		}
		h := KeyHash(fmt.Sprintf("%s|runs=%d", c.paramString(), c.Runs), spec.Seed)
		c.Key = fmt.Sprintf("%016x", h)
		c.Seed = int64(h &^ (1 << 63))
	}
	for i := range sw.Deltas {
		d := &sw.Deltas[i]
		a, b := sw.Cells[d.A], sw.Cells[d.B]
		if a.Runs != b.Runs {
			return nil, fmt.Errorf("sweep: delta pair (%s, %s) has mismatched run counts %d/%d",
				a.Key, b.Key, a.Runs, b.Runs)
		}
		h := KeyHash(fmt.Sprintf("%s|runs=%d", deltaParamString(a, b), a.Runs), spec.Seed)
		d.Key = fmt.Sprintf("%016x", h)
	}

	for msg := range skipped {
		sw.Skipped = append(sw.Skipped, msg)
	}
	sort.Strings(sw.Skipped)
	return sw, nil
}

// margin returns the certification margin for one cell estimate: the
// estimator's 95% normal half-width widened to the sweep-wide
// union-bound Hoeffding half-width (range-scaled), whichever is larger.
func (s *Sweep) margin(c Cell, hw float64) float64 {
	return s.marginSpan(span(c.Gamma), c.Runs, hw)
}

// marginSpan is margin with an explicit sample range: control-variate
// cells certify over the residual payoffs, whose range (possibly zero —
// the estimate is then exact) replaces the full payoff span in the
// Hoeffding widening.
func (s *Sweep) marginSpan(sp float64, runs int, hw float64) float64 {
	hoeff := sp * stats.HoeffdingHalfWidth(int64(runs), s.deltaPrime)
	return math.Max(hw, hoeff)
}

// residualSpan is the range of the residual payoffs γ(E) − C(E) the
// control-variate estimator actually samples.
func residualSpan(g core.Payoff, cv core.ControlVariate) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, e := range core.Events() {
		v := g.Of(e) - cv.EventValue[i]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// runCell measures and certifies one cell. Deterministic: depends only
// on the cell (which embeds its runs and seed) and the spec's
// scheduling-neutral options — plus, when enabled, the statistical
// options (PairedSeeds, ControlVariates), which are themselves pure
// functions of (Spec, Seed). A non-nil eventLog (len ≥ c.Runs) receives
// the per-run classified events for paired delta reduction; it never
// affects the record.
func (s *Sweep) runCell(c Cell, eventLog []core.Event) (Record, error) {
	proto, err := buildProtocol(c.Family, c.N, c.P)
	if err != nil {
		return Record{}, fmt.Errorf("sweep: cell %s: %w", c.Key, err)
	}
	sampler := buildSampler(c.Family, c.N)
	opts := []core.Option{core.WithParallelism(s.Spec.Parallelism)}
	if s.Spec.BatchSize > 0 {
		opts = append(opts, core.WithBatchSize(s.Spec.BatchSize))
	}
	if s.Spec.NoCompiledPlans {
		opts = append(opts, core.WithCompiledPlans(false))
	}
	if s.Spec.PairedSeeds {
		opts = append(opts, core.WithPairedSeeds(s.pairedMaster))
	}
	if eventLog != nil {
		opts = append(opts, core.WithEventLog(eventLog))
	}
	cellSpan := span(c.Gamma)
	cvNote := ""
	if s.Spec.ControlVariates && c.Family == "gk" && c.Adv == "firsthit" {
		cv := core.GKFirstHitControl(c.Gamma, proto.NumRounds()/2, 0.5)
		opts = append(opts, core.WithControlVariate(cv))
		cellSpan = residualSpan(c.Gamma, cv)
		cvNote = "cv=" + cv.Name
	}

	var rep core.UtilityReport
	note := ""
	switch {
	case c.Adv == "sup":
		space := buildSpace(c, proto)
		sup, err := core.SupUtilitySpace(proto, core.SliceSpace(space), c.Gamma, sampler, c.Runs, c.Seed, opts...)
		if err != nil {
			return Record{}, fmt.Errorf("sweep: cell %s: %w", c.Key, err)
		}
		rep = sup.BestReport
		note = "best: " + sup.Best
	case c.Adv == "sup-search":
		// The racing engine certifies the winner at the same c.Runs
		// resolution the exhaustive sup cell would use — the margin
		// arithmetic below sees an estimate of identical sample size —
		// while racing spends at most c.Runs per eliminated rival.
		so := search.Options{
			RaceRuns: c.Runs, FinalRuns: c.Runs,
			Parallelism:     s.Spec.Parallelism,
			BatchSize:       s.Spec.BatchSize,
			NoCompiledPlans: s.Spec.NoCompiledPlans,
		}
		srep, err := search.Run(proto, core.SliceSpace(buildSpace(c, proto)), c.Gamma, sampler, c.Seed, so)
		if err != nil {
			return Record{}, fmt.Errorf("sweep: cell %s: %w", c.Key, err)
		}
		rep = srep.BestReport
		note = fmt.Sprintf("best: %s (raced %d/%d runs)", srep.Best, srep.TotalRuns, srep.ExhaustiveRuns)
	default:
		adv, err := buildAdversary(c)
		if err != nil {
			return Record{}, err
		}
		rep, err = core.EstimateUtility(proto, adv, c.Gamma, sampler, c.Runs, c.Seed, opts...)
		if err != nil {
			return Record{}, fmt.Errorf("sweep: cell %s: %w", c.Key, err)
		}
	}

	if cvNote != "" {
		if note != "" {
			note += "; "
		}
		note += cvNote
	}

	est := rep.Utility
	m := s.marginSpan(cellSpan, c.Runs, est.HalfWidth)
	boundName, bound := cellBound(c, proto)
	rec := Record{
		Kind: "cell", Key: c.Key, Family: c.Family,
		Gamma: [4]float64{c.Gamma.G00, c.Gamma.G01, c.Gamma.G10, c.Gamma.G11},
		N:     c.N, T: c.T, Adv: c.Adv, Cost: c.Cost, P: c.P,
		Runs: c.Runs, Seed: c.Seed,
		Mean: est.Mean, HalfWidth: est.HalfWidth, Samples: est.N,
		Events: [4]float64{
			rep.EventFreq[core.E00], rep.EventFreq[core.E01],
			rep.EventFreq[core.E10], rep.EventFreq[core.E11],
		},
		Note: note,
	}

	addCheck := func(ck Check) { rec.Checks = append(rec.Checks, ck) }
	slack := s.Spec.Slack
	// The family bound: Lo (CI widened to the union-bound margin) must
	// not exceed bound + slack — the empirical "≤ up to negligible".
	addCheck(Check{
		Name: boundName, Dir: "<=", Bound: bound, Value: est.Mean, Margin: m,
		OK: est.Mean-m <= bound+slack,
	})
	if c.Cost == "optimal" {
		// Theorem 6 / Lemma 22: under the closed-form optimal cost
		// c(t) = bound(t) − s(t), the cost-adjusted utility must not
		// exceed the ideal payoff s(t) = IdealBound(γ).
		ideal := core.IdealBound(c.Gamma)
		cost := func(int) float64 { return bound - ideal }
		adjusted := core.UtilityWithCost(est.Mean, c.T, cost)
		addCheck(Check{
			Name: "ideal-cost", Dir: "<=", Bound: ideal, Value: adjusted, Margin: m,
			OK: adjusted-m <= ideal+slack,
		})
	}
	if c.Family == "gk" {
		iters := proto.NumRounds() / 2
		// Wilson score certification of the raw fairness-failure
		// frequency Pr[E10] against the 1/p ceiling (Theorems 23/24), at
		// the same union-bound budget δ′ as every other check.
		e10 := int64(math.Round(rec.Events[2] * float64(c.Runs)))
		lo, _ := stats.WilsonScore(float64(e10)/float64(c.Runs), int64(c.Runs), stats.ZQuantile(s.deltaPrime))
		addCheck(Check{
			Name: "gk-e10-wilson", Dir: "<=", Bound: 1 / float64(c.P),
			Value: rec.Events[2], Margin: rec.Events[2] - lo,
			OK: lo <= 1/float64(c.P)+slack,
		})
		if c.Gamma == core.GordonKatzPayoff() {
			// At ~γ = (0,0,1,0) the first-hit utility IS Pr[E10], with the
			// exact closed form (1−(1−h)^r)/(r·h) at h = ½.
			exact := core.GKFirstHitExact(iters, 0.5)
			addCheck(Check{
				Name: "gk-first-hit-exact", Dir: "=", Bound: exact,
				Value: est.Mean, Margin: m,
				OK: math.Abs(est.Mean-exact) <= m+slack,
			})
		}
	}

	rec.OK = true
	for _, ck := range rec.Checks {
		if !ck.OK {
			rec.OK = false
		}
	}
	return rec, nil
}

// runSum reduces the already-computed per-t cell records of one sum plan
// into an aggregate record.
func (s *Sweep) runSum(p sumPlan, cellRecs []Record) Record {
	var sum, marginSum float64
	for _, idx := range p.cellIdx {
		cr := cellRecs[idx]
		sum += cr.Mean
		marginSum += s.margin(s.Cells[idx], cr.HalfWidth)
	}
	rec := Record{
		Kind: "sum", Key: p.Key, Family: p.Family,
		Gamma: [4]float64{p.Gamma.G00, p.Gamma.G01, p.Gamma.G10, p.Gamma.G11},
		N:     p.N, Cost: p.Cost,
		Mean: sum, HalfWidth: marginSum,
	}
	slack := s.Spec.Slack
	switch p.Family {
	case "optn":
		// Lemmas 14/16: the per-t sum of ΠOpt-nSFE is utility-balanced.
		bound := core.BalancedSumBound(p.Gamma, p.N)
		rec.Checks = []Check{{
			Name: "balanced-sum", Dir: "<=", Bound: bound, Value: sum,
			Margin: marginSum, OK: sum-marginSum <= bound+slack,
		}}
	case "gmwhalf":
		// Lemma 17 (even n): the setup attacker's per-t sum reaches
		// (n/2)·γ10 + (n/2−1)·γ11, exceeding the balanced optimum.
		bound := core.GMWEvenNSumLowerBound(p.Gamma, p.N)
		rec.Checks = []Check{{
			Name: "gmw-sum-lower", Dir: ">=", Bound: bound, Value: sum,
			Margin: marginSum, OK: sum+marginSum >= bound-slack,
		}}
	}
	rec.OK = true
	for _, ck := range rec.Checks {
		if !ck.OK {
			rec.OK = false
		}
	}
	return rec
}

// runDelta reduces the member cells' per-run event logs into a paired
// delta record: the CRN-paired estimate of u(cell A) − u(cell B),
// certified against monotonicity (the first-hit utility decreases in p)
// and against the exact closed-form difference. The pairing is what
// makes this affordable — the cells share coin sequences, so the
// per-run differences carry only the cells' genuine disagreement.
func (s *Sweep) runDelta(d deltaPlan, logA, logB []core.Event) (Record, error) {
	a, b := s.Cells[d.A], s.Cells[d.B]
	va := make([]float64, a.Runs)
	vb := make([]float64, b.Runs)
	for i := range va {
		va[i] = a.Gamma.Of(logA[i])
		vb[i] = b.Gamma.Of(logB[i])
	}
	est, err := stats.PairedEstimateZ(va, vb, stats.ZQuantile(s.deltaPrime))
	if err != nil {
		return Record{}, fmt.Errorf("sweep: delta %s: %w", d.Key, err)
	}
	protoA, err := buildProtocol(a.Family, a.N, a.P)
	if err != nil {
		return Record{}, fmt.Errorf("sweep: delta %s: %w", d.Key, err)
	}
	protoB, err := buildProtocol(b.Family, b.N, b.P)
	if err != nil {
		return Record{}, fmt.Errorf("sweep: delta %s: %w", d.Key, err)
	}
	exact := core.GKFirstHitExact(protoA.NumRounds()/2, 0.5) -
		core.GKFirstHitExact(protoB.NumRounds()/2, 0.5)

	m := est.HalfWidth
	slack := s.Spec.Slack
	rec := Record{
		Kind: "delta", Key: d.Key, Family: a.Family,
		Gamma: [4]float64{a.Gamma.G00, a.Gamma.G01, a.Gamma.G10, a.Gamma.G11},
		N:     a.N, T: a.T, Adv: a.Adv, Cost: a.Cost, P: a.P,
		Runs: a.Runs,
		Mean: est.Mean, HalfWidth: est.HalfWidth, Samples: est.N,
		Note: fmt.Sprintf("paired vs p=%d", b.P),
		Pair: b.Key,
	}
	rec.Checks = []Check{{
		// Monotonicity: more rounds can only lower the first-hit utility.
		Name: "gk-delta-nonneg", Dir: ">=", Bound: 0, Value: est.Mean, Margin: m,
		OK: est.Mean+m >= -slack,
	}, {
		// The difference of two exact laws is itself exact.
		Name: "gk-delta-exact", Dir: "=", Bound: exact, Value: est.Mean, Margin: m,
		OK: math.Abs(est.Mean-exact) <= m+slack,
	}}
	rec.OK = rec.Checks[0].OK && rec.Checks[1].OK
	return rec, nil
}
