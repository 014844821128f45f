package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/multiparty"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sweepJob is one execution of sweep-grid's job on a fresh pool
// configured as fairsweep configures it (Workers: 1, CacheSize: -1).
// The first record is the warm-up op; the rest are the timed ops.
type sweepJob struct {
	start   time.Time      // pool creation
	times   []time.Time    // Progress callback times, one per record
	records []sweep.Record // in checkpoint order
	sum     *sweep.Summary
	jobSpan int
	win     *windows // over the timed records
}

// runSweepJob runs the job, whose plan has `records` records. With
// firstOnly it cancels the sweep after the warm-up record: one timed
// cold set-up.
func runSweepJob(spec sweep.Spec, records int, firstOnly bool, tr *tracer) (sweepJob, error) {
	var j sweepJob
	j.start = time.Now()
	pool := service.New(service.Config{Workers: 1, CacheSize: -1})
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	progress := func(done, total int, rec sweep.Record, resumed bool) {
		now := time.Now()
		if done == 1 {
			j.win = newWindows(0, records-1)
			if firstOnly {
				cancel()
			}
		} else {
			j.win.tick()
		}
		if tr != nil && len(j.times) > 0 {
			tr.add("sweep.record "+rec.Family, done-2, j.jobSpan, j.times[len(j.times)-1], now)
		}
		j.times = append(j.times, now)
		j.records = append(j.records, rec)
	}
	j.jobSpan = tr.open("service.Submit→Wait sweep", -1, -1)
	job, err := pool.Submit(service.SweepParams{Spec: spec},
		service.WithJobContext(ctx), service.WithProgress(progress))
	if err != nil {
		return j, err
	}
	res, err := job.Wait()
	tr.close(j.jobSpan)
	if firstOnly {
		if len(j.times) == 0 {
			return j, fmt.Errorf("sweep set-up produced no record: %v", err)
		}
		return j, nil
	}
	if err != nil {
		return j, err
	}
	j.sum = res.Sweep
	return j, nil
}

// timed returns the per-op latencies and wall time of the timed ops:
// record i's latency runs from record i−1's answer to its own.
func (j sweepJob) timed() ([]time.Duration, time.Duration) {
	lat := make([]time.Duration, len(j.times)-1)
	for i := range lat {
		lat[i] = j.times[i+1].Sub(j.times[i])
	}
	return lat, j.times[len(j.times)-1].Sub(j.times[0])
}

// check runs the per-record and summary checks and folds the records
// into the answer digest.
func (j sweepJob) check(planned int) (errs []error, runErr error, dg string, runs int64) {
	d := newDigest()
	errs = make([]error, len(j.records)-1)
	for i, rec := range j.records {
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err, "", 0
		}
		d.add(b)
		runs += int64(rec.Runs)
		if i > 0 {
			errs[i-1] = checkSweepRecord(rec)
		}
	}
	return errs, checkSweepSummary(j.sum, planned), d.String(), runs
}

func runSweepGrid(cfg config) (result, error) {
	spec := sweepGridSpec(cfg.seed)
	plan, err := sweep.Plan(spec)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return traceSweep(cfg, spec, plan)
	}
	spin0 := hostSpin()
	var setups []time.Duration
	for k := 0; k < coldSetups-1; k++ {
		j, err := runSweepJob(spec, plan.Records(), true, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, j.times[0].Sub(j.start))
	}
	runtime.LockOSThread()
	client0 := threadCPU()
	j, err := runSweepJob(spec, plan.Records(), false, nil)
	clientCPU := threadCPU() - client0
	runtime.UnlockOSThread()
	if err != nil {
		return result{}, err
	}
	setups = append(setups, j.times[0].Sub(j.start))
	lat, _ := j.timed()
	errs, runErr, dg, runs := j.check(plan.Records())
	log := &opLog{lat: lat, errs: errs, run: runErr}
	v := map[string]float64{
		"setup_s":     median(seconds(setups)),
		"runs_per_op": float64(runs) / float64(len(j.records)),
	}
	return untracedResult(cfg, v, j.win, log, dg, clientCPU, spin0)
}

// traceSweep is sweep-grid's traced run: an untraced and a traced run of
// the same job (their records must agree), sweep.Plan timings, and the
// core/sim probes on a sample of the grid's cells.
func traceSweep(cfg config, spec sweep.Spec, plan *sweep.Sweep) (result, error) {
	spin0 := hostSpin()
	tr := newTracer()
	v := map[string]float64{}

	runtime.LockOSThread()
	gc0, client0 := readGC(), threadCPU()
	a, err := runSweepJob(spec, plan.Records(), false, nil)
	clientCPU, gc1 := threadCPU()-client0, readGC()
	runtime.UnlockOSThread()
	if err != nil {
		return result{}, err
	}
	b, err := runSweepJob(spec, plan.Records(), false, tr)
	if err != nil {
		return result{}, err
	}
	latA, wallA := a.timed()
	latB, wallB := b.timed()
	n := len(latA)
	errsA, runErrA, dgA, _ := a.check(plan.Records())
	errsB, runErrB, dgB, _ := b.check(plan.Records())
	failA, firstA := (&opLog{errs: errsA}).failed()
	failB, firstB := (&opLog{errs: errsB}).failed()
	runErrs := []error{firstA, firstB, runErrA, runErrB, checkDigests(dgA, dgB)}

	gcMetrics(v, gc0, gc1, n)
	v["bench.client_cpu_ms_per_op"] = ms(clientCPU) / float64(n)
	v["trace.overhead"] = wallB.Seconds()/wallA.Seconds() - 1
	v["service.job_us"] = float64(tr.spans[b.jobSpan].End-tr.spans[b.jobSpan].Start) / 1e3

	var plans []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		if _, err := sweep.Plan(spec); err != nil {
			return result{}, err
		}
		tr.add("sweep.Plan", -1, -1, t0, time.Now())
		plans = append(plans, ms(time.Since(t0)))
	}
	v["sweep.plan_ms"] = median(plans)

	// Per family: runs per record, and the p50 of record times over
	// both runs (the warm-up record has no latency).
	recMs := map[string][]float64{}
	runs := map[string]float64{}
	count := map[string]float64{}
	for i, rec := range b.records {
		runs[rec.Family] += float64(rec.Runs)
		count[rec.Family]++
		if i > 0 {
			recMs[rec.Family] = append(recMs[rec.Family], ms(latA[i-1]), ms(latB[i-1]))
		}
	}
	for _, f := range sweepFamilies {
		if count[f] == 0 {
			continue
		}
		v["sweep.runs_per_record."+f] = runs[f] / count[f]
		p50, err := percentile(recMs[f], 0.5)
		if err != nil {
			return result{}, fmt.Errorf("sweep.record_ms_p50.%s: %w", f, err)
		}
		v["sweep.record_ms_p50."+f] = p50
	}
	capped := 0
	for _, c := range plan.Cells {
		if c.Runs == plan.Spec.MaxRuns {
			capped++
		}
	}
	v["sweep.capped_share"] = float64(capped) / float64(len(plan.Cells))
	if b.sum != nil {
		v["sweep.breaches"] = float64(len(b.sum.Breaches))
	}

	tuples, err := sweepTuples(plan)
	if err != nil {
		return result{}, err
	}
	probe, err := probeCoreSim(tuples, tr)
	if err != nil {
		return result{}, err
	}
	for k, x := range probe {
		v[k] = x
	}
	v["host.spin_ms"] = ms(max(spin0, hostSpin()))
	return traceResult(cfg, tr, 2*n, failA+failB, runErrs, v)
}

// sweepProto maps sweep families to the registry protocol the cell
// instantiates (the multi-party families at the cell's n, gk at its p).
func sweepProto(c sweep.Cell) string {
	switch c.Family {
	case "2sfe":
		return "2sfe-opt"
	case "oneround":
		return "2sfe-oneround"
	case "optn":
		return fmt.Sprintf("nsfe-opt:%d", c.N)
	case "gmwhalf":
		return fmt.Sprintf("nsfe-gmw12:%d", c.N)
	case "gk":
		return fmt.Sprintf("gk-polydomain:%d", c.P)
	}
	return c.Family // pi1, pi2
}

// sweepAdversary builds a cell's attacker as the sweep does: the
// canonical corrupted prefix {1..t}.
func sweepAdversary(c sweep.Cell) (sim.Adversary, error) {
	set := adversary.TSubsets(c.N, c.T)[0]
	switch c.Adv {
	case "lock":
		return adversary.NewLockAbort(set...), nil
	case "setup":
		return adversary.NewSetupAbort(set...), nil
	case "gmwsetup":
		return multiparty.NewGMWSetupAttacker(set...), nil
	case "firsthit":
		return gordonkatz.NewFirstHit(1), nil
	}
	var r int
	if _, err := fmt.Sscanf(c.Adv, "abort@%d", &r); err != nil {
		return nil, fmt.Errorf("sweep adversary %q: %w", c.Adv, err)
	}
	return adversary.NewAbortAt(r, set...), nil
}

// sweepTuples lists the grid's cells as core tuples.
func sweepTuples(plan *sweep.Sweep) ([]tuple, error) {
	var out []tuple
	for _, c := range plan.Cells {
		c := c
		name := sweepProto(c)
		proto, sampler, err := service.BuildProtocol(name)
		if err != nil {
			return nil, err
		}
		out = append(out, tuple{
			class: classOf(name), label: name + " " + c.Adv,
			proto: proto, sampler: sampler, gamma: c.Gamma,
			newAdv: func() (sim.Adversary, error) { return sweepAdversary(c) },
			runs:   c.Runs, seed: c.Seed,
		})
	}
	return out, nil
}
