package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
)

// tuple is one (protocol, adversary, runs, seed) estimate a workload
// makes, rebuilt for the direct core/sim probes of the traced run.
type tuple struct {
	class   string
	label   string
	proto   sim.Protocol
	newAdv  func() (sim.Adversary, error)
	sampler core.InputSampler
	gamma   core.Payoff
	runs    int
	seed    int64
}

// classOf maps a registry protocol name to its simulator class.
func classOf(proto string) string {
	switch {
	case strings.HasPrefix(proto, "gk-"):
		return "gk"
	case strings.HasPrefix(proto, "nsfe-"):
		return "multi_party"
	}
	return "two_party"
}

// registryTuple builds a tuple from registry names, as the daemon does.
func registryTuple(proto, adv string, runs int, seed int64) (tuple, error) {
	p, sampler, err := service.BuildProtocol(proto)
	if err != nil {
		return tuple{}, err
	}
	n := p.NumParties()
	return tuple{
		class: classOf(proto), label: proto + " " + adv,
		proto: p, sampler: sampler, gamma: service.DefaultPayoff(proto),
		newAdv: func() (sim.Adversary, error) { return service.BuildAdversary(adv, n) },
		runs:   runs, seed: seed,
	}, nil
}

// probeRunCap bounds each probe estimate's runs per class, keeping the
// probes to a few seconds whatever the workload's run counts.
var probeRunCap = map[string]int{"two_party": 4000, "gk": 2000, "multi_party": 300}

// probePerClass is how many tuples per class the probes sample.
const probePerClass = 4

// phaseObserver times the simulator's phases of every run it sees:
// setup (RunStarted→SetupFinished), rounds (→ the finalize round's
// start) and finalize (→ RunFinished), and counts rounds and messages.
// It is attached at parallelism 1, so one instance sees runs serially.
type phaseObserver struct {
	sim.NopObserver
	finalRound                 int
	start, setupEnd, finalFrom time.Time
	setupNs, roundsNs, finalNs int64
	runNs                      int64
	runs, rounds, messages     int64
}

func (o *phaseObserver) RunStarted(p sim.Protocol, _ []sim.Value) {
	o.finalRound = p.NumRounds() + 1
	o.start = time.Now()
	o.finalFrom = time.Time{}
}

func (o *phaseObserver) SetupFinished(bool) { o.setupEnd = time.Now() }

func (o *phaseObserver) RoundStarted(r int) {
	o.rounds++
	if r == o.finalRound {
		o.finalFrom = time.Now()
	}
}

func (o *phaseObserver) MessageSent(int, sim.Message, bool) { o.messages++ }

func (o *phaseObserver) RunFinished(*sim.Trace) {
	end := time.Now()
	if o.finalFrom.IsZero() {
		o.finalFrom = end
	}
	o.runs++
	o.setupNs += int64(o.setupEnd.Sub(o.start))
	o.roundsNs += int64(o.finalFrom.Sub(o.setupEnd))
	o.finalNs += int64(end.Sub(o.finalFrom))
	o.runNs += int64(end.Sub(o.start))
}

// estimate runs one direct core estimate of t at the given runs and
// parallelism, with optional extra options.
func (t tuple) estimate(runs, parallelism int, opts ...core.Option) (core.UtilityReport, time.Duration, error) {
	adv, err := t.newAdv()
	if err != nil {
		return core.UtilityReport{}, 0, err
	}
	opts = append([]core.Option{core.WithParallelism(parallelism)}, opts...)
	t0 := time.Now()
	rep, err := core.EstimateUtility(t.proto, adv, t.gamma, t.sampler, runs, t.seed, opts...)
	return rep, time.Since(t0), err
}

// sampleTuples keeps up to probePerClass tuples per class, spread
// evenly over the workload's list (deterministic).
func sampleTuples(all []tuple) map[string][]tuple {
	byClass := map[string][]tuple{}
	for _, t := range all {
		byClass[t.class] = append(byClass[t.class], t)
	}
	for c, ts := range byClass {
		if len(ts) > probePerClass {
			step := float64(len(ts)) / probePerClass
			picked := make([]tuple, probePerClass)
			for i := range picked {
				picked[i] = ts[int(float64(i)*step)]
			}
			byClass[c] = picked
		}
	}
	return byClass
}

// probeCoreSim runs the core and sim layer probes on a workload's
// tuples and returns their per-layer values. Each probe call gets a
// "core.*" span.
func probeCoreSim(all []tuple, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	var compile, fixed []float64
	var allocs, bytes, allocRuns, gapNs float64
	nproc := runtime.NumCPU()
	sampled := sampleTuples(all)
	for _, class := range simClasses {
		ts := sampled[class]
		if len(ts) == 0 {
			continue
		}
		var wallNs, runs float64
		obs := &phaseObserver{}
		for _, t := range ts {
			runsT := min(t.runs, probeRunCap[class])

			adv, err := t.newAdv()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			// A pair that does not compile runs interpreted in the
			// estimator; the probe times the attempt either way.
			_, _ = sim.CompilePlan(t.proto, adv)
			compile = append(compile, us(time.Since(t0)))
			tr.add("core.CompilePlan "+t.label, -1, -1, t0, time.Now())

			for i := 0; i < 3; i++ {
				t0 := time.Now()
				if _, _, err := t.estimate(1, 0); err != nil {
					return nil, fmt.Errorf("%s: %w", t.label, err)
				}
				fixed = append(fixed, us(time.Since(t0)))
				tr.add("core.EstimateUtility runs=1 "+t.label, -1, -1, t0, time.Now())
			}

			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 = time.Now()
			_, d, err := t.estimate(runsT, 1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.label, err)
			}
			runtime.ReadMemStats(&ms1)
			tr.add(fmt.Sprintf("core.EstimateUtility runs=%d p=1 %s", runsT, t.label), -1, -1, t0, time.Now())
			wallNs += float64(d)
			runs += float64(runsT)
			allocs += float64(ms1.Mallocs - ms0.Mallocs)
			bytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			allocRuns += float64(runsT)

			before := *obs
			t0 = time.Now()
			_, d, err = t.estimate(runsT, 1, core.WithObserver(func(int) sim.Observer { return obs }))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.label, err)
			}
			tr.add(fmt.Sprintf("core.EstimateUtility runs=%d p=1 observed %s", runsT, t.label), -1, -1, t0, time.Now())
			gapNs += float64(int64(d) - (obs.runNs - before.runNs))
		}
		out["core.ns_per_run."+class] = wallNs / runs
		r := float64(obs.runs)
		out["sim.setup_ns_per_run."+class] = float64(obs.setupNs) / r
		out["sim.rounds_ns_per_run."+class] = float64(obs.roundsNs) / r
		out["sim.finalize_ns_per_run."+class] = float64(obs.finalNs) / r
		out["sim.rounds_per_run."+class] = float64(obs.rounds) / r
		out["sim.messages_per_run."+class] = float64(obs.messages) / r

		short, err := parallelEfficiency(ts[0], 100, 9, nproc, tr)
		if err != nil {
			return nil, err
		}
		long, err := parallelEfficiency(ts[0], 10000, 1, nproc, tr)
		if err != nil {
			return nil, err
		}
		out["core.parallel_efficiency."+class+".short"] = short
		out["core.parallel_efficiency."+class+".long"] = long
	}
	if len(compile) > 0 {
		out["core.compile_plan_us"] = median(compile)
		out["core.estimate_fixed_us"] = median(fixed)
		out["core.allocs_per_run"] = allocs / allocRuns
		out["core.bytes_per_run"] = bytes / allocRuns
		out["core.gap_ns_per_run"] = gapNs / allocRuns
	}
	return out, nil
}

// parallelEfficiency is runs/s at nproc workers ÷ (nproc × runs/s at
// one worker) on a runs-run estimate of t, the median of reps
// interleaved pairs.
func parallelEfficiency(t tuple, runs, reps, nproc int, tr *tracer) (float64, error) {
	var one, all []float64
	for i := 0; i < reps; i++ {
		for _, p := range []int{1, nproc} {
			t0 := time.Now()
			_, d, err := t.estimate(runs, p)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", t.label, err)
			}
			tr.add(fmt.Sprintf("core.EstimateUtility runs=%d p=%d %s", runs, p, t.label), -1, -1, t0, time.Now())
			if p == 1 {
				one = append(one, float64(d))
			} else {
				all = append(all, float64(d))
			}
		}
	}
	return median(one) / (float64(nproc) * median(all)), nil
}

// gcStats snapshots the Go runtime's collection counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{m.NumGC, m.PauseTotalNs}
}

// gcMetrics adds the go.* per-op values for a window of ops.
func gcMetrics(out map[string]float64, from, to gcStats, ops int) {
	out["go.gc_cycles_per_op"] = float64(to.cycles-from.cycles) / float64(ops)
	out["go.gc_pause_ms_per_op"] = float64(to.pauseNs-from.pauseNs) / 1e6 / float64(ops)
}
