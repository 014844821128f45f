package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one op share Op; Parent is the index of the enclosing span (-1 for a
// root). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write stores them when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index for children.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, op, parent int) int {
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Per-layer metric names. Every traced run prints all of them; a layer
// a workload does not exercise reads 0 (README.md lists which apply).
var (
	sweepFamilies = []string{"2sfe", "oneround", "pi1", "pi2", "optn", "gmwhalf", "gk"}
	simClasses    = []string{"two_party", "gk", "multi_party"}
)

// perLayerUnits maps every per-layer metric to its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"fairnessd.http_self_us":     "us",
		"fairnessd.response_bytes":   "bytes",
		"service.cache_hit_ratio":    "ratio",
		"service.job_us":             "us",
		"sweep.plan_ms":              "ms",
		"sweep.capped_share":         "ratio",
		"sweep.breaches":             "count",
		"search.savings":             "ratio",
		"search.pruned_share":        "ratio",
		"search.killed_share":        "ratio",
		"search.final_runs_share":    "ratio",
		"search.waves":               "count",
		"search.estimates_per_op":    "count",
		"core.estimate_fixed_us":     "us",
		"core.compile_plan_us":       "us",
		"core.gap_ns_per_run":        "ns",
		"core.allocs_per_run":        "count",
		"core.bytes_per_run":         "bytes",
		"go.gc_cycles_per_op":        "count",
		"go.gc_pause_ms_per_op":      "ms",
		"bench.client_cpu_ms_per_op": "ms",
		"host.spin_ms":               "ms",
		"trace.overhead":             "ratio",
	}
	for _, f := range sweepFamilies {
		u["sweep.runs_per_record."+f] = "runs"
		u["sweep.record_ms_p50."+f] = "ms"
	}
	for _, c := range simClasses {
		u["core.ns_per_run."+c] = "ns"
		u["core.parallel_efficiency."+c+".short"] = "ratio"
		u["core.parallel_efficiency."+c+".long"] = "ratio"
		u["sim.setup_ns_per_run."+c] = "ns"
		u["sim.rounds_ns_per_run."+c] = "ns"
		u["sim.finalize_ns_per_run."+c] = "ns"
		u["sim.rounds_per_run."+c] = "count"
		u["sim.messages_per_run."+c] = "count"
	}
	return u
}

// layerMetrics fills a traced run's values into the full per-layer
// list, zero for layers the workload does not exercise.
func layerMetrics(values map[string]float64) (map[string]metric, error) {
	units := perLayerUnits()
	out := make(map[string]metric, len(units))
	for name, v := range values {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", name)
		}
		out[name] = metric{v, units[name]}
	}
	for name, unit := range units {
		if _, ok := out[name]; !ok {
			out[name] = metric{0, unit}
		}
	}
	return out, nil
}
