package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sim"
)

// searchPool is a pool configured as fairsearch configures its own.
func searchPool() *service.Pool {
	return service.New(service.Config{Workers: 1, CacheSize: -1})
}

// submitSearch runs one search job to completion; a non-empty
// checkpoint path streams its record stream there (the traced run).
func submitSearch(pool *service.Pool, p service.SearchParams, checkpoint string) (*search.Report, error) {
	var opts []service.JobOption
	if checkpoint != "" {
		opts = append(opts, service.WithCheckpoint(checkpoint))
	}
	job, err := pool.Submit(p, opts...)
	if err != nil {
		return nil, err
	}
	res, err := job.Wait()
	if err != nil {
		return nil, err
	}
	return res.Search, nil
}

// searchPass is one pass over search-race's timed op list.
type searchPass struct {
	log       *opLog
	reports   []*search.Report
	wall      time.Duration
	clientCPU time.Duration // the submitting thread's CPU
	gc0, gc1  gcStats
	digest    string
	runs      int64
	win       *windows
}

// racePass submits the searches one at a time — a closed loop with one
// job in flight, as the single-worker pool executes them anyway — and
// checks every certified winner. With a tracer, each job streams its
// checkpoint into dir and gets a span.
func racePass(pool *service.Pool, ops []service.SearchParams, tr *tracer, dir string, counts map[string]int) (searchPass, error) {
	ps := searchPass{log: newOpLog(len(ops)), reports: make([]*search.Report, len(ops))}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ps.gc0 = readGC()
	client0 := threadCPU()
	ps.win = newWindows(0, len(ops))
	start := time.Now()
	for i, p := range ops {
		ckpt := ""
		if tr != nil {
			ckpt = filepath.Join(dir, "search-checkpoint.jsonl")
			if err := os.Remove(ckpt); err != nil && !os.IsNotExist(err) {
				return ps, err
			}
		}
		t0 := time.Now()
		rep, err := submitSearch(pool, p, ckpt)
		end := time.Now()
		ps.log.lat[i] = end.Sub(t0)
		if err == nil {
			err = checkSearchWinner(p, rep)
		}
		ps.log.errs[i] = err
		ps.reports[i] = rep
		ps.win.tick()
		if tr != nil {
			tr.add("service.Submit→Wait search "+p.Proto, i, -1, t0, end)
			if err := countRecords(ckpt, counts); err != nil {
				return ps, err
			}
		}
	}
	ps.wall = time.Since(start)
	ps.clientCPU = threadCPU() - client0
	ps.gc1 = readGC()
	d := newDigest()
	for _, rep := range ps.reports {
		b, err := json.Marshal(rep)
		if err != nil {
			return ps, err
		}
		d.add(b)
		if rep != nil {
			ps.runs += rep.TotalRuns
		}
	}
	ps.digest = d.String()
	return ps, nil
}

// countRecords tallies a search checkpoint's record kinds (prune, wave,
// kill, final), skipping the header line.
func countRecords(path string, counts map[string]int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var rec search.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("checkpoint %s: %w", path, err)
		}
		counts[rec.Kind]++
	}
	return sc.Err()
}

// bootSearch creates a pool and answers the warm-up search: one cold
// set-up of search-race.
func bootSearch(warm service.SearchParams) (*service.Pool, time.Duration, int64, error) {
	t0 := time.Now()
	pool := searchPool()
	rep, err := submitSearch(pool, warm, "")
	if err == nil {
		err = checkSearchWinner(warm, rep)
	}
	if err != nil {
		pool.Close()
		return nil, 0, 0, fmt.Errorf("warm-up search: %w", err)
	}
	return pool, time.Since(t0), rep.TotalRuns, nil
}

func runSearchRace(cfg config) (result, error) {
	warm, ops := searchRaceOps(cfg.seed, cfg.seconds)
	if cfg.trace {
		return traceSearch(cfg, warm, ops)
	}
	spin0 := hostSpin()
	var setups []time.Duration
	var pool *service.Pool
	var warmRuns int64
	for k := 0; k < coldSetups; k++ {
		if pool != nil {
			pool.Close()
		}
		var dur time.Duration
		var err error
		if pool, dur, warmRuns, err = bootSearch(warm); err != nil {
			return result{}, err
		}
		setups = append(setups, dur)
	}
	defer pool.Close()
	ps, err := racePass(pool, ops, nil, "", nil)
	if err != nil {
		return result{}, err
	}
	v := map[string]float64{
		"setup_s":     median(seconds(setups)),
		"runs_per_op": float64(warmRuns+ps.runs) / float64(len(ops)+1),
	}
	return untracedResult(cfg, v, ps.win, ps.log, ps.digest, ps.clientCPU, spin0)
}

// traceSearch is search-race's traced run: an untraced and a traced pass
// (checkpoint streams on) over the same searches, whose reports must
// agree, then the core/sim probes on the searched arms.
func traceSearch(cfg config, warm service.SearchParams, ops []service.SearchParams) (result, error) {
	spin0 := hostSpin()
	tr := newTracer()
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return result{}, err
	}
	poolA, _, _, err := bootSearch(warm)
	if err != nil {
		return result{}, err
	}
	a, err := racePass(poolA, ops, nil, "", nil)
	poolA.Close()
	if err != nil {
		return result{}, err
	}
	poolB, _, _, err := bootSearch(warm)
	if err != nil {
		return result{}, err
	}
	counts := map[string]int{}
	b, err := racePass(poolB, ops, tr, cfg.traceDir, counts)
	st := poolB.Stats()
	poolB.Close()
	if err != nil {
		return result{}, err
	}
	if err := os.Remove(filepath.Join(cfg.traceDir, "search-checkpoint.jsonl")); err != nil && !os.IsNotExist(err) {
		return result{}, err
	}

	n := len(ops)
	failA, firstA := a.log.failed()
	failB, firstB := b.log.failed()
	runErrs := []error{firstA, firstB, checkDigests(a.digest, b.digest)}
	v := map[string]float64{
		"bench.client_cpu_ms_per_op": ms(a.clientCPU) / float64(n),
		"trace.overhead":             b.wall.Seconds()/a.wall.Seconds() - 1,
		"service.cache_hit_ratio":    float64(st.CacheHits) / float64(st.Submitted),
	}
	gcMetrics(v, a.gc0, a.gc1, n)
	jobUs := make([]float64, n)
	for i, d := range b.log.lat {
		jobUs[i] = us(d)
	}
	v["service.job_us"] = median(jobUs)

	var arms, pruned, killed, waves float64
	var exhaustive, spent, final float64
	for i, rep := range b.reports {
		if rep == nil {
			continue
		}
		for _, arm := range rep.Arms {
			arms++
			switch arm.Status {
			case search.StatusPruned:
				pruned++
			case search.StatusKilled:
				killed++
			}
		}
		waves += float64(rep.Waves)
		exhaustive += float64(rep.ExhaustiveRuns)
		spent += float64(rep.TotalRuns)
		final += float64(ops[i].FinalRuns)
	}
	v["search.savings"] = exhaustive / spent
	v["search.pruned_share"] = pruned / arms
	v["search.killed_share"] = killed / arms
	v["search.final_runs_share"] = final / spent
	v["search.waves"] = waves / float64(n)
	v["search.estimates_per_op"] = float64(counts["wave"]+counts["final"]) / float64(n)

	tuples, err := searchTuples(ops)
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

// searchTuples lists, per searched protocol, arms spread over its raw
// space at a racing cap's run count and the first search's seed.
func searchTuples(ops []service.SearchParams) ([]tuple, error) {
	var out []tuple
	seen := map[string]bool{}
	for _, p := range ops {
		if seen[p.Proto] {
			continue
		}
		seen[p.Proto] = true
		proto, sampler, err := service.BuildProtocol(p.Proto)
		if err != nil {
			return nil, err
		}
		space, err := service.BuildSpace(p.Space, p.Proto)
		if err != nil {
			return nil, err
		}
		for k := 1; k <= probePerClass; k++ {
			i := k * (space.Len() - 1) / probePerClass
			name := space.At(i).Name
			out = append(out, tuple{
				class: classOf(p.Proto), label: p.Proto + " " + name,
				proto: proto, sampler: sampler, gamma: service.DefaultPayoff(p.Proto),
				newAdv: func() (sim.Adversary, error) { return space.At(i).Adv, nil },
				runs:   p.RaceRuns, seed: p.Seed,
			})
		}
	}
	return out, nil
}
