package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a percentile resting on fewer is noise, so it is refused.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie above the rank.
func percentile(xs []float64, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the two middle values for even
// counts); used for set-up repetitions and probe timings, where the
// sample count is fixed by the benchmark, not by the workload.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndUnits lists the end-to-end metrics an untraced run prints.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"op_p50_ms":     "ms",
	"op_p90_ms":     "ms",
	"runs_per_op":   "runs",
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MiB",
}

// latencyMetrics adds op_p50_ms and op_p90_ms.
func latencyMetrics(m map[string]float64, lat []time.Duration) error {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = ms(d)
	}
	p50, err := percentile(xs, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(xs, 0.9)
	if err != nil {
		return err
	}
	m["op_p50_ms"] = p50
	m["op_p90_ms"] = p90
	return nil
}

// untracedResult completes an untraced run: the windowed and latency
// metrics join the workload's own values (setup_s, runs_per_op), every
// end-to-end metric must be present, and the run's reproducibility and
// noise probes go to standard error.
func untracedResult(cfg config, v map[string]float64, win *windows, log *opLog, dg string, clientCPU, spin0 time.Duration) (result, error) {
	if err := win.metrics(v); err != nil {
		return result{}, err
	}
	if err := latencyMetrics(v, log.lat); err != nil {
		return result{}, err
	}
	m := make(map[string]metric, len(endToEndUnits))
	for name, unit := range endToEndUnits {
		x, ok := v[name]
		if !ok {
			return result{}, fmt.Errorf("end-to-end metric %s not measured", name)
		}
		m[name] = metric{x, unit}
	}
	failed, first := log.failed()
	if first == nil {
		first = log.run
	}
	n := len(log.lat)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d digest=%s runs_per_op=%.6g client_cpu_ms_per_op=%.4g host_spin_ms=%.2f,%.2f\n",
		cfg.workload, cfg.seed, dg, v["runs_per_op"], ms(clientCPU)/float64(n), ms(spin0), ms(hostSpin()))
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", first)
	}
	return result{Correct: failed == 0 && log.run == nil, Attempted: n, Failed: failed, Metrics: m}, nil
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageTime(ru)
}

// rusageThread is Linux's RUSAGE_THREAD (not exported by syscall).
const rusageThread = 1

// threadCPU is the calling OS thread's CPU time; callers pin their
// goroutine with runtime.LockOSThread first.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return rusageTime(ru)
}

func rusageTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spinIterations fixes the host probe's work: about 30 ms on the
// reference host.
const spinIterations = 12_000_000

var spinSink uint64

// hostSpin times a fixed register-only loop (an xorshift chain, no
// memory traffic). Run at the start and end of every run, it tells a
// slow or contended host from a program change.
func hostSpin() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < spinIterations; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return time.Since(t0)
}
