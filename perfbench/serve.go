package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// daemon is one fairnessd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{}
	stderr bytes.Buffer // written by exec's copier; read after done
}

// startDaemon boots fairnessd at default flags on a free loopback port
// and waits until /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(bin)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	nproc := runtime.NumCPU()
	d := &daemon{
		cmd:  exec.Command(bin, "-addr", addr),
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc},
		},
		done: make(chan struct{}),
	}
	d.cmd.Stderr = &d.stderr
	// Should this process die without stopping it, the kernel kills the
	// daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through stderr
		close(d.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("fairnessd exited during start: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fairnessd not healthy after 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
	d.client.CloseIdleConnections()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// post sends one request and reads the body into buf.
func (d *daemon) post(path string, body []byte, buf *bytes.Buffer) (status int, cache string, err error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Fairnessd-Cache"), nil
}

// scrape reads the daemon's /metrics counters.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// closedLoop runs ops 0..n-1 from `inflight` callers, each issuing its
// next op only after the previous one answered, and returns the wall
// time. op receives the op index and the caller's reusable buffer.
func closedLoop(n, inflight int, op func(i int, buf *bytes.Buffer)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i, &buf)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// opLog collects one timed phase's per-op outcomes. Each op writes only
// its own slots, so callers need no locking. run records a failed
// run-level check (one no single op can be blamed for).
type opLog struct {
	lat  []time.Duration
	errs []error
	run  error
}

func newOpLog(n int) *opLog {
	return &opLog{lat: make([]time.Duration, n), errs: make([]error, n)}
}

func (l *opLog) failed() (int, error) {
	n := 0
	var first error
	for _, err := range l.errs {
		if err != nil {
			if first == nil {
				first = err
			}
			n++
		}
	}
	return n, first
}

// servePhase is one timed phase against a running daemon.
type servePhase struct {
	log       *opLog
	wall      time.Duration
	clientCPU time.Duration // this process's CPU over the phase
	before    map[string]float64
	after     map[string]float64
	bytes     int64
	digest    string
	win       *windows // the daemon's windows
}

// serveWindow wraps a timed phase of n ops with /metrics scrapes, the
// client's CPU reading and the daemon's measurement windows, which run
// ticks once per completed op.
func serveWindow(d *daemon, n int, run func(win *windows) time.Duration) (servePhase, error) {
	var ph servePhase
	var err error
	if ph.before, err = d.scrape(); err != nil {
		return ph, err
	}
	client0 := processCPU()
	ph.win = newWindows(d.pid(), n)
	ph.wall = run(ph.win)
	ph.clientCPU = processCPU() - client0
	ph.after, err = d.scrape()
	return ph, err
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// coldSetups is how many cold set-ups a run times; setup_s is their
// median, and the last one's daemon serves the timed ops.
const coldSetups = 5

// bootCold starts a daemon and answers the warm-up request: one cold
// set-up of serve-cold.
func bootCold(bin string, warm serveOp) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	status, cache, err := d.post(warm.Shape.path(), warm.body(), &buf)
	if err == nil {
		err = checkHTTP(status, cache, "miss")
	}
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return d, time.Since(t0), nil
}

// coldPhase sends every serve-cold request once and checks each answer:
// HTTP 200, a cache miss, the echoed request and the closed-form bound.
func coldPhase(d *daemon, ops []serveOp, tr *tracer) (servePhase, [][]byte, error) {
	n := len(ops)
	reqs := make([][]byte, n)
	for i, op := range ops {
		reqs[i] = op.body()
	}
	bodies := make([][]byte, n)
	log := newOpLog(n)
	ph, err := serveWindow(d, n, func(win *windows) time.Duration {
		return closedLoop(n, runtime.NumCPU(), func(i int, buf *bytes.Buffer) {
			t0 := time.Now()
			status, cache, err := d.post(ops[i].Shape.path(), reqs[i], buf)
			end := time.Now()
			log.lat[i] = end.Sub(t0)
			tr.add("fairnessd POST "+ops[i].Shape.path(), i, -1, t0, end)
			if err == nil {
				err = checkHTTP(status, cache, "miss")
			}
			log.errs[i] = err
			bodies[i] = append([]byte(nil), buf.Bytes()...)
			win.tick()
		})
	})
	if err != nil {
		return ph, nil, err
	}
	ph.log = log
	if hits := ph.after["fairnessd_cache_hits_total"] - ph.before["fairnessd_cache_hits_total"]; hits != 0 {
		log.run = fmt.Errorf("%g cache hits on never-repeated requests", hits)
	}
	dg := newDigest()
	for i, b := range bodies {
		ph.bytes += int64(len(b))
		dg.add(b)
		if log.errs[i] == nil {
			_, log.errs[i] = parseServeAnswer(ops[i], b)
		}
	}
	ph.digest = dg.String()
	return ph, bodies, nil
}

func runServeCold(cfg config) (result, error) {
	warm, ops := serveColdOps(cfg.seed, cfg.seconds)
	if cfg.trace {
		return traceServe(cfg, "serve-cold", ops, func(tr *tracer) (*daemon, servePhase, [][]byte, error) {
			d, _, err := bootCold(cfg.daemon, warm)
			if err != nil {
				return nil, servePhase{}, nil, err
			}
			ph, bodies, err := coldPhase(d, ops, tr)
			return d, ph, bodies, err
		})
	}
	spin0 := hostSpin()
	var setups []time.Duration
	var d *daemon
	for k := 0; k < coldSetups; k++ {
		if d != nil {
			d.stop()
		}
		var dur time.Duration
		var err error
		if d, dur, err = bootCold(cfg.daemon, warm); err != nil {
			return result{}, err
		}
		setups = append(setups, dur)
	}
	defer d.stop()
	ph, _, err := coldPhase(d, ops, nil)
	if err != nil {
		return result{}, err
	}
	return serveResult(cfg, setups, ph, spin0)
}

// serveResult completes an untraced serve run. Runs per op counts every
// answer the daemon gave, warm-up and set-up fill included, so cache
// hits amortise the runs that filled the cache.
func serveResult(cfg config, setups []time.Duration, ph servePhase, spin0 time.Duration) (result, error) {
	v := map[string]float64{
		"setup_s":     median(seconds(setups)),
		"runs_per_op": ph.after["fairness_engine_runs_total"] / ph.after["fairnessd_jobs_completed_total"],
	}
	return untracedResult(cfg, v, ph.win, ph.log, ph.digest, ph.clientCPU, spin0)
}

// hotSetups is serve-hot's number of timed set-ups (each fills the
// working set, so fewer than serve-cold's).
const hotSetups = 3

// bootHot starts a daemon, answers the warm-up request and fills the
// working set: one set-up of serve-hot. It returns the set-up bodies
// the timed answers must reproduce byte for byte.
func bootHot(bin string, warm serveOp, set []serveOp) (*daemon, time.Duration, [][]byte, error) {
	t0 := time.Now()
	d, _, err := bootCold(bin, warm)
	if err != nil {
		return nil, 0, nil, err
	}
	want := make([][]byte, len(set))
	errs := make([]error, len(set))
	closedLoop(len(set), runtime.NumCPU(), func(i int, buf *bytes.Buffer) {
		status, cache, err := d.post(set[i].Shape.path(), set[i].body(), buf)
		if err == nil {
			err = checkHTTP(status, cache, "miss")
		}
		if err == nil {
			_, err = parseServeAnswer(set[i], buf.Bytes())
		}
		errs[i] = err
		want[i] = append([]byte(nil), buf.Bytes()...)
	})
	dur := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, 0, nil, fmt.Errorf("fill: %w", err)
		}
	}
	return d, dur, want, nil
}

// hotPhase replays the timed op list against a filled daemon. Every
// answer must be a cache hit byte-identical to its set-up body, and the
// daemon must run no simulation during the phase.
func hotPhase(d *daemon, set []serveOp, want [][]byte, ops []int, tr *tracer) (servePhase, error) {
	reqs := make([][]byte, len(set))
	for i, op := range set {
		reqs[i] = op.body()
	}
	log := newOpLog(len(ops))
	ph, err := serveWindow(d, len(ops), func(win *windows) time.Duration {
		return closedLoop(len(ops), runtime.NumCPU(), func(i int, buf *bytes.Buffer) {
			j := ops[i]
			t0 := time.Now()
			status, cache, err := d.post(set[j].Shape.path(), reqs[j], buf)
			end := time.Now()
			log.lat[i] = end.Sub(t0)
			tr.add("fairnessd POST "+set[j].Shape.path(), i, -1, t0, end)
			if err == nil {
				err = checkHTTP(status, cache, "hit")
			}
			if err == nil {
				err = checkSameBody(buf.Bytes(), want[j])
			}
			log.errs[i] = err
			win.tick()
		})
	})
	if err != nil {
		return ph, err
	}
	ph.log = log
	if runs := ph.after["fairness_engine_runs_total"] - ph.before["fairness_engine_runs_total"]; runs != 0 {
		log.run = fmt.Errorf("daemon simulated %g runs while serving cache hits", runs)
	}
	dg := newDigest()
	for _, b := range want {
		dg.add(b)
	}
	idx := make([]byte, 0, 4*len(ops))
	for _, j := range ops {
		idx = strconv.AppendInt(idx, int64(j), 10)
		idx = append(idx, ',')
		ph.bytes += int64(len(want[j]))
	}
	dg.add(idx)
	ph.digest = dg.String()
	return ph, nil
}

func runServeHot(cfg config) (result, error) {
	warm, set, ops := serveHotOps(cfg.seed, cfg.seconds)
	if cfg.trace {
		return traceServe(cfg, "serve-hot", hotReplayOps(set, ops), func(tr *tracer) (*daemon, servePhase, [][]byte, error) {
			d, _, want, err := bootHot(cfg.daemon, warm, set)
			if err != nil {
				return nil, servePhase{}, nil, err
			}
			ph, err := hotPhase(d, set, want, ops, tr)
			return d, ph, want, err
		})
	}
	spin0 := hostSpin()
	var setups []time.Duration
	var d *daemon
	var want [][]byte
	for k := 0; k < hotSetups; k++ {
		if d != nil {
			d.stop()
		}
		var dur time.Duration
		var err error
		if d, dur, want, err = bootHot(cfg.daemon, warm, set); err != nil {
			return result{}, err
		}
		setups = append(setups, dur)
	}
	defer d.stop()
	ph, err := hotPhase(d, set, want, ops, nil)
	if err != nil {
		return result{}, err
	}
	return serveResult(cfg, setups, ph, spin0)
}

// hotReplayOps expands serve-hot's index list into requests for the
// in-process replay.
func hotReplayOps(set []serveOp, ops []int) []serveOp {
	out := make([]serveOp, len(ops))
	for i, j := range ops {
		out[i] = set[j]
	}
	return out
}

// serveParams is the service job the daemon submits for a request.
func serveParams(op serveOp) service.Params {
	if len(op.Shape.Advs) > 0 {
		return service.SupParams{Proto: op.Shape.Proto, Advs: op.Shape.Advs, Runs: daemonRuns, Seed: op.Seed}
	}
	return service.EstimateParams{Proto: op.Shape.Proto, Adv: op.Shape.Adv, Runs: daemonRuns, Seed: op.Seed}
}

// serveTuples lists the core tuples of a serve op list (a sup expands
// to one tuple per strategy, at the seed SupUtilitySpace gives it).
func serveTuples(ops []serveOp) ([]tuple, error) {
	var out []tuple
	for _, op := range ops {
		advs := op.Shape.Advs
		if len(advs) == 0 {
			advs = []string{op.Shape.Adv}
		}
		for i, a := range advs {
			seed := op.Seed
			if len(op.Shape.Advs) > 0 {
				seed += int64(i) * 7919
			}
			t, err := registryTuple(op.Shape.Proto, a, daemonRuns, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// traceServe is the traced run of a serve workload: an untraced and a
// traced pass over the same op list, each on a fresh daemon (their
// answers must agree), then the in-process service replay, the direct
// library replay and the core/sim probes. pass boots a daemon and runs
// the timed phase, traced when given a tracer; it returns the daemon
// running, with the answer bodies when it keeps them.
func traceServe(cfg config, name string, replay []serveOp,
	pass func(*tracer) (*daemon, servePhase, [][]byte, error)) (result, error) {
	spin0 := hostSpin()
	tr := newTracer()
	d, a, _, err := pass(nil)
	if d != nil {
		d.stop()
	}
	if err != nil {
		return result{}, err
	}
	d, b, bodies, err := pass(tr)
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return result{}, err
	}

	n := len(b.log.lat)
	failA, firstA := a.log.failed()
	failB, firstB := b.log.failed()
	runErrs := []error{firstA, firstB, a.log.run, b.log.run, checkDigests(a.digest, b.digest)}

	v := map[string]float64{
		"fairnessd.response_bytes":   float64(b.bytes) / float64(n),
		"bench.client_cpu_ms_per_op": ms(a.clientCPU) / float64(n),
		"trace.overhead":             b.wall.Seconds()/a.wall.Seconds() - 1,
	}
	submitted := b.after["fairnessd_jobs_submitted_total"] - b.before["fairnessd_jobs_submitted_total"]
	v["service.cache_hit_ratio"] = (b.after["fairnessd_cache_hits_total"] - b.before["fairnessd_cache_hits_total"]) / submitted

	// Service layer: Submit→Wait on an in-process pool configured like
	// the daemon, replaying a sample of the ops (serve-hot fills its
	// working set first, untimed, so the replay hits as the daemon did).
	// fairnessd's own cost per request is then measured on the same
	// sample resent as cache hits to both: the daemon's hit round trip
	// minus the pool's hit Submit→Wait. (On serve-cold a miss's round
	// trip minus a separate execution's job time would be noise: the
	// HTTP share is about 1% of an op.)
	step := max(1, len(replay)/200)
	pool := service.New(service.Config{})
	defer pool.Close()
	submit := func(op serveOp) (time.Duration, error) {
		t0 := time.Now()
		job, err := pool.Submit(serveParams(op))
		if err == nil {
			_, err = job.Wait()
		}
		return time.Since(t0), err
	}
	unique := uniqueOps(replay)
	if name == "serve-hot" {
		for _, op := range unique {
			if _, err := submit(op); err != nil {
				return result{}, err
			}
		}
	}
	sample := make([]int, 0, len(replay)/step+1)
	for i := 0; i < len(replay); i += step {
		sample = append(sample, i)
	}
	jobUs := make([]float64, len(sample))
	selfUs := make([]float64, len(sample))
	replayErrs := make([]error, len(sample))
	gc0 := readGC()
	closedLoop(len(sample), runtime.NumCPU(), func(k int, _ *bytes.Buffer) {
		t0 := time.Now()
		job, err := submit(replay[sample[k]])
		tr.add("service.Submit→Wait", sample[k], -1, t0, t0.Add(job))
		jobUs[k], replayErrs[k] = us(job), err
	})
	gc1 := readGC()
	// The hit pass runs apart from the replay above, so both sides see
	// the same hit-only load.
	closedLoop(len(sample), runtime.NumCPU(), func(k int, buf *bytes.Buffer) {
		op := replay[sample[k]]
		hitJob, err := submit(op)
		// Posted twice: the first re-fills the entry if the LRU evicted it.
		var status int
		var cache string
		var t0 time.Time
		var rt time.Duration
		for try := 0; try < 2 && err == nil; try++ {
			t0 = time.Now()
			status, cache, err = d.post(op.Shape.path(), op.body(), buf)
			rt = time.Since(t0)
		}
		if err == nil {
			err = checkHTTP(status, cache, "hit")
		}
		tr.add("fairnessd POST "+op.Shape.path()+" (hit)", sample[k], -1, t0, t0.Add(rt))
		if err != nil {
			replayErrs[k] = err
		}
		selfUs[k] = us(rt - hitJob)
	})
	gcMetrics(v, gc0, gc1, len(sample))
	runErrs = append(runErrs, replayErrs...)
	v["service.job_us"] = median(jobUs)
	v["fairnessd.http_self_us"] = median(selfUs)

	// Core layer: serve-cold's direct library replay of every answer
	// must reproduce the daemon's utilities bit for bit.
	if name == "serve-cold" {
		for i, op := range replay {
			runErrs = append(runErrs, replayServeOp(op, bodies[i], tr, i))
		}
	}
	tuples, err := serveTuples(unique)
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

// replayServeOp re-derives one serve answer with a direct library call
// and checks it bit for bit.
func replayServeOp(op serveOp, body []byte, tr *tracer, i int) error {
	a, err := parseServeAnswer(op, body)
	if err != nil {
		return err
	}
	proto, sampler, err := service.BuildProtocol(op.Shape.Proto)
	if err != nil {
		return err
	}
	g := service.DefaultPayoff(op.Shape.Proto)
	t0 := time.Now()
	defer func() { tr.add("core "+op.Shape.path(), i, -1, t0, time.Now()) }()
	if len(op.Shape.Advs) == 0 {
		adv, err := service.BuildAdversary(op.Shape.Adv, proto.NumParties())
		if err != nil {
			return err
		}
		rep, err := core.EstimateUtility(proto, adv, g, sampler, daemonRuns, op.Seed)
		if err != nil {
			return err
		}
		return checkReplayEstimate(a, rep)
	}
	space := make(core.SliceSpace, len(op.Shape.Advs))
	for k, name := range op.Shape.Advs {
		adv, err := service.BuildAdversary(name, proto.NumParties())
		if err != nil {
			return err
		}
		space[k] = core.NamedAdversary{Name: name, Adv: adv}
	}
	rep, err := core.SupUtilitySpace(proto, space, g, sampler, daemonRuns, op.Seed)
	if err != nil {
		return err
	}
	return checkReplaySup(a, rep)
}

// uniqueOps drops repeated requests, keeping first occurrences.
func uniqueOps(ops []serveOp) []serveOp {
	seen := map[string]bool{}
	var out []serveOp
	for _, op := range ops {
		k := string(op.body())
		if !seen[k] {
			seen[k] = true
			out = append(out, op)
		}
	}
	return out
}

// traceResult writes the spans and assembles a traced run's result:
// the per-layer metrics, with every failed op and run-level check
// counted against correctness.
func traceResult(cfg config, tr *tracer, attempted, failed int, runErrs []error, v map[string]float64) (result, error) {
	correct := failed == 0
	for _, err := range runErrs {
		if err != nil {
			correct = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
	path, err := tr.write(cfg.traceDir, cfg.workload, cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	m, err := layerMetrics(v)
	if err != nil {
		return result{}, err
	}
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
