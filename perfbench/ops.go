package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"repro/internal/service"
	"repro/internal/sweep"
)

// Op lists. Every workload's inputs — request bodies, estimation seeds,
// the sweep's grid seed, the searches' seeds — are a pure function of
// (workload seed, run length). The request *shapes* are the same for
// every seed: a seed only draws fresh estimation seeds and an order, so
// two seeds cost the same work and runs_per_op is fixed per shape mix.

// nominalOpsPerSecond sizes the op lists: a run of -seconds S executes
// about S × rate ops on the reference 2-CPU host. The list length, not
// the clock, ends a run.
var nominalOpsPerSecond = map[string]float64{
	"serve-cold":  70,
	"serve-hot":   9000,
	"search-race": 6,
}

// minTimedOps keeps op_p90_ms computable: the percentile helper needs
// ten samples beyond p90, so at least 100 ops.
const minTimedOps = 100

// serveShape is one request shape: an estimate of a (protocol,
// adversary) pair, or a sup over a strategy list when Advs is set.
type serveShape struct {
	Proto string
	Adv   string
	Advs  []string
}

// serveOp is one request: a shape plus its estimation seed.
type serveOp struct {
	Shape serveShape
	Seed  int64
}

// serveProtos are the registry's two-party protocols: the 2SFE
// variants, Π1/Π2, Gordon–Katz at small p, and Π̃.
var serveProtos = []string{
	"2sfe-opt", "2sfe-fixed2", "2sfe-oneround", "pi1", "pi2",
	"gk-polydomain:2", "gk-polydomain:3", "gk-polyrange:2", "gk-pitilde",
}

// serveAdvs are the estimate adversaries, each valid on every protocol
// above; supAdvs is the strategy list of the sup requests, and
// supProtos the protocols that get one.
//
// Sups go to three protocols only: a sup over these strategies costs
// two to four estimates, and sups of the Gordon–Katz family would form
// a cluster of 60–140 ms answers around the 90th percentile, where
// op_p90_ms would jump between it and the 30–50 ms estimates from seed
// to seed. With two slow sups in 57 shapes, p90 sits inside the dense
// Gordon–Katz estimate range.
var (
	serveAdvs = []string{"lock-abort:1", "lock-abort:2", "agen", "abort:2:1", "static:1", "allbut-mixer"}
	supAdvs   = []string{"lock-abort:1", "lock-abort:2", "agen"}
	supProtos = []string{"2sfe-opt", "pi2", "gk-polydomain:2"}
)

// serveMenu lists every shape once: each protocol × estimate adversary,
// then the sups (a minority, 3 of 57).
func serveMenu() []serveShape {
	var menu []serveShape
	for _, p := range serveProtos {
		for _, a := range serveAdvs {
			menu = append(menu, serveShape{Proto: p, Adv: a})
		}
	}
	for _, p := range supProtos {
		menu = append(menu, serveShape{Proto: p, Advs: supAdvs})
	}
	return menu
}

// hotShapes is serve-hot's working set: every other menu shape (29 of
// 57, two sups included), far inside the daemon's 1024-entry LRU.
func hotShapes() []serveShape {
	var ws []serveShape
	for i, s := range serveMenu() {
		if i%2 == 0 {
			ws = append(ws, s)
		}
	}
	return ws
}

// path is the endpoint the shape posts to.
func (s serveShape) path() string {
	if len(s.Advs) > 0 {
		return "/v1/sup"
	}
	return "/v1/estimate"
}

// name is a short label for spans and class lookup.
func (s serveShape) name() string {
	if len(s.Advs) > 0 {
		return s.Proto + " sup[" + strings.Join(s.Advs, ",") + "]"
	}
	return s.Proto + " " + s.Adv
}

// body is the JSON request. Runs is omitted, so the daemon fills in its
// default (1000).
func (op serveOp) body() []byte {
	var v any
	if len(op.Shape.Advs) > 0 {
		v = service.SupParams{Proto: op.Shape.Proto, Advs: op.Shape.Advs, Seed: op.Seed}
	} else {
		v = service.EstimateParams{Proto: op.Shape.Proto, Adv: op.Shape.Adv, Seed: op.Seed}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return b
}

// seedSource draws distinct estimation seeds from one workload seed.
type seedSource struct {
	r    *rand.Rand
	used map[int64]bool
}

// newSeedSource salts the workload seed with the workload name, so two
// workloads at one seed draw unrelated inputs.
func newSeedSource(seed int64, workload string) *seedSource {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &seedSource{
		r:    rand.New(rand.NewSource(seed ^ int64(h.Sum64()&math.MaxInt64))),
		used: map[int64]bool{},
	}
}

// next returns a seed not returned before: a never-repeated request.
func (s *seedSource) next() int64 {
	for {
		v := s.r.Int63n(1 << 40)
		if !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

// repeats returns how many copies of a unit of `unit` ops make a run of
// about `seconds` at `rate` ops/s, with at least minTimedOps ops.
func repeats(seconds int, rate float64, unit int) int {
	k := int(math.Round(float64(seconds) * rate / float64(unit)))
	for k*unit < minTimedOps {
		k++
	}
	return max(k, 1)
}

// serveColdOps returns the warm-up request and the timed requests of
// serve-cold: the menu repeated to run length, shuffled, every request
// at a fresh seed so each one misses the cache.
func serveColdOps(seed int64, seconds int) (warm serveOp, ops []serveOp) {
	src := newSeedSource(seed, "serve-cold")
	menu := serveMenu()
	warm = serveOp{Shape: menu[0], Seed: src.next()}
	k := repeats(seconds, nominalOpsPerSecond["serve-cold"], len(menu))
	for i := 0; i < k; i++ {
		for _, s := range menu {
			ops = append(ops, serveOp{Shape: s, Seed: src.next()})
		}
	}
	src.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return warm, ops
}

// serveHotOps returns serve-hot's warm-up request, its working set
// (filled during set-up) and the timed op list as indices into the
// working set: every point repeated equally often, shuffled.
func serveHotOps(seed int64, seconds int) (warm serveOp, set []serveOp, ops []int) {
	src := newSeedSource(seed, "serve-hot")
	shapes := hotShapes()
	warm = serveOp{Shape: shapes[0], Seed: src.next()}
	for _, s := range shapes {
		set = append(set, serveOp{Shape: s, Seed: src.next()})
	}
	k := repeats(seconds, nominalOpsPerSecond["serve-hot"], len(set))
	for i := 0; i < k; i++ {
		for j := range set {
			ops = append(ops, j)
		}
	}
	src.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return warm, set, ops
}

// searchProtos is search-race's unit of searches over the raw two-party
// spaces. Π1 appears twice on purpose: the four protocols' latencies
// form four separate clusters (2sfe-opt < pi1 < pi2 < gk-polydomain:2,
// about 60/80/150/220 ms), and with equal shares op_p50_ms would sit on
// the gap between the second and third cluster, jumping between them
// from seed to seed. With shares 1:2:1:1 the median falls inside Π1's
// cluster and p90 inside Gordon–Katz's.
var searchProtos = []string{"2sfe-opt", "pi1", "pi1", "pi2", "gk-polydomain:2"}

// searchParams is one search job exactly as fairsearch submits it with
// its default flags: raw space, 1000-run racing cap, 5000-run
// certification, δ = 0.05, no beam, no CRN.
func searchParams(proto string, seed int64) service.SearchParams {
	return service.SearchParams{
		Proto: proto, Space: service.SpaceRaw,
		RaceRuns: 1000, FinalRuns: 5000, Delta: 0.05,
		Seed: seed,
	}
}

// searchWarmSeed fixes the warm-up search. A search's cost depends on
// its racing path, which its seed picks; a warm-up drawn from the
// workload seed made setup_s vary by half from seed to seed.
const searchWarmSeed = 1

// searchRaceOps returns the warm-up search and the timed searches: the
// protocol unit repeated to run length, shuffled, each at a fresh seed.
func searchRaceOps(seed int64, seconds int) (warm service.SearchParams, ops []service.SearchParams) {
	src := newSeedSource(seed, "search-race")
	warm = searchParams("pi2", searchWarmSeed)
	k := repeats(seconds, nominalOpsPerSecond["search-race"], len(searchProtos))
	for i := 0; i < k; i++ {
		for _, p := range searchProtos {
			ops = append(ops, searchParams(p, src.next()))
		}
	}
	src.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return warm, ops
}

// sweepGridSpec is sweep-grid's one job: the standing grid (every
// family, the three standard γ, both costs, the abort-round sweep,
// default adaptive sampling, no variance-reduction levers) at small n.
// The grid is fixed; the seed only moves the grid seed, so the record
// count does not depend on -seconds.
func sweepGridSpec(seed int64) sweep.Spec {
	spec := sweep.DefaultSpec()
	spec.Ns = []int{2, 3}
	spec.Seed = newSeedSource(seed, "sweep-grid").next()
	return spec
}
