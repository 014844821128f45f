package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// TestClosedLoopWindows drives the shared measurement state — per-op
// slots, window ticks, spans — from several callers at once, as the
// serve workloads do; run it under -race.
func TestClosedLoopWindows(t *testing.T) {
	const n = 200
	log := newOpLog(n)
	calls := make([]int, n)
	tr := newTracer()
	win := newWindows(0, n)
	closedLoop(n, 4, func(i int, buf *bytes.Buffer) {
		buf.Reset()
		buf.WriteString("answer")
		calls[i]++
		log.lat[i] = 1
		tr.add("op", i, -1, tr.t0, tr.t0)
		win.tick()
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("op %d ran %d times", i, c)
		}
	}
	if len(tr.spans) != n {
		t.Fatalf("%d spans, want %d", len(tr.spans), n)
	}
	m := map[string]float64{}
	if err := win.metrics(m); err != nil {
		t.Fatal(err)
	}
	if m["ops_per_s"] <= 0 || m["peak_rss_mb"] <= 0 {
		t.Fatalf("window metrics %v", m)
	}
	if failed, first := log.failed(); failed != 0 || first != nil {
		t.Fatalf("clean log reports %d failures (%v)", failed, first)
	}
}

// TestRunSweepJob runs a two-cell sweep through the pool as sweep-grid
// does: the progress callback's records and times, written on the
// worker goroutine, are read after Wait; run it under -race.
func TestRunSweepJob(t *testing.T) {
	spec := sweep.Spec{
		Families: []string{"2sfe"}, Gammas: []core.Payoff{core.StandardPayoff()},
		Ns: []int{2}, Costs: []string{"zero", "optimal"}, Seed: 3,
	}
	plan, err := sweep.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := runSweepJob(spec, plan.Records(), false, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	errs, runErr, _, _ := j.check(plan.Records())
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	lat, wall := j.timed()
	if len(lat) != plan.Records()-1 || wall <= 0 {
		t.Fatalf("%d timed records over %v, plan has %d", len(lat), wall, plan.Records())
	}
	first, err := runSweepJob(spec, plan.Records(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.records) == 0 || !reflect.DeepEqual(first.records[0], j.records[0]) {
		t.Fatal("set-up run's warm-up record differs from the full run's")
	}
}
