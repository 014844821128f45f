package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

// soloGrabber is a non-cloneable grabber that records the engine
// context of every run it plays. Each worker's arena owns one context,
// so a strategy that ran on two workers has seen two; the unguarded map
// write also trips the race detector if two workers ever share it.
type soloGrabber struct {
	*grabber
	seen map[*sim.AdvContext]bool
}

func newSoloGrabber() *soloGrabber {
	return &soloGrabber{grabber: &grabber{}, seen: map[*sim.AdvContext]bool{}}
}

func (s *soloGrabber) Reset(ctx *sim.AdvContext) {
	s.seen[ctx] = true
	s.grabber.Reset(ctx)
}

func (*soloGrabber) CloneAdversary() sim.Adversary { return nil }

// runLog is an ObserverFactory that records the index of every run it
// saw finish.
type runLog struct {
	mu   sync.Mutex
	runs []int
}

func (l *runLog) factory(run int) sim.Observer {
	return countingObserver{mu: &l.mu, runs: &l.runs, run: run}
}

func (l *runLog) sorted() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]int(nil), l.runs...)
	sort.Ints(out)
	return out
}

// pickyProtocol fails the setup of every run whose first input is 7,
// so some runs of a job fail and others do not.
type pickyProtocol struct{ flipProtocol }

func (pickyProtocol) Name() string { return "test-picky" }

func (pickyProtocol) Setup(in []sim.Value, _ *rand.Rand) ([]sim.Value, error) {
	if in[0].(uint64) == 7 {
		return nil, fmt.Errorf("picky input")
	}
	return nil, nil
}

// jobMix is the scheduler tests' job list: cloneable and non-cloneable
// strategies, jobs longer than a batch, and jobs with fewer runs than
// workers.
func jobMix() []Job {
	return []Job{
		{Adv: &grabber{}, Runs: 101, Seed: 1},
		{Adv: newSoloGrabber(), Runs: 150, Seed: 2},
		{Adv: sim.Passive{}, Runs: 3, Seed: 3},
		{Adv: &grabber{}, Runs: 64, Seed: 4},
		{Adv: &grabber{}, Runs: 1, Seed: 5},
		{Adv: newSoloGrabber(), Runs: 7, Seed: 6},
		{Adv: &grabber{}, Runs: 230, Seed: 7},
	}
}

// TestEstimateJobsMatchesOneAtATime pins the scheduler's contract: every
// job of one EstimateJobs call reports exactly what EstimateUtility
// reports for that job alone at parallelism 1 — utility, event counts,
// engine Metrics and one observer call per run — for 1, 2, 3 and 7 jobs
// at 1, 2 and 4 workers, at the default batch and at a batch small
// enough that workers join started jobs. A non-cloneable strategy runs
// on one worker only, and a failing job reports its lowest-index failure
// as EstimateUtility does, without failing the others.
func TestEstimateJobsMatchesOneAtATime(t *testing.T) {
	for _, proto := range []sim.Protocol{flipProtocol{}, pickyProtocol{}} {
		for _, n := range []int{1, 2, 3, 7} {
			for _, par := range []int{1, 2, 4} {
				for _, batch := range []int{0, 5} {
					name := fmt.Sprintf("%s/jobs=%d/par=%d/batch=%d", proto.Name(), n, par, batch)
					t.Run(name, func(t *testing.T) {
						failed := checkJobs(t, proto, jobMix()[:n], par, batch)
						if _, picky := proto.(pickyProtocol); picky && n == 7 && (failed == 0 || failed == n) {
							t.Errorf("%d of %d picky jobs failed; the case needs both kinds", failed, n)
						}
					})
				}
			}
		}
	}
}

// checkJobs runs jobs in one call and compares each with the job
// alone, returning how many jobs failed.
func checkJobs(t *testing.T, proto sim.Protocol, jobs []Job, par, batch int) (failed int) {
	t.Helper()
	logs := make([]runLog, len(jobs))
	for i := range jobs {
		jobs[i].Observe = logs[i].factory
	}
	got := EstimateJobs(proto, jobs, StandardPayoff(), uniformInputs,
		WithParallelism(par), WithBatchSize(batch))
	if len(got) != len(jobs) {
		t.Fatalf("%d reports for %d jobs", len(got), len(jobs))
	}
	for i, job := range jobs {
		var adv sim.Adversary = &grabber{}
		if _, passive := job.Adv.(sim.Passive); passive {
			adv = sim.Passive{}
		}
		var alone runLog
		want, wantErr := EstimateUtility(proto, adv, StandardPayoff(), uniformInputs,
			job.Runs, job.Seed, WithParallelism(1), WithObserver(alone.factory))
		if fmt.Sprint(got[i].Err) != fmt.Sprint(wantErr) {
			t.Errorf("job %d: error %v, alone %v", i, got[i].Err, wantErr)
			continue
		}
		if wantErr != nil {
			failed++
			continue
		}
		if !reflect.DeepEqual(got[i].UtilityReport, want) {
			t.Errorf("job %d: report differs from the job alone:\ngot:   %+v\nalone: %+v", i, got[i].UtilityReport, want)
		}
		var counts [4]int64
		for k, e := range Events() {
			counts[k] = int64(math.Round(want.EventFreq[e] * float64(job.Runs)))
		}
		if got[i].Events != counts {
			t.Errorf("job %d: event counts %v, want %v", i, got[i].Events, counts)
		}
		if g, w := logs[i].sorted(), alone.sorted(); !reflect.DeepEqual(g, w) {
			t.Errorf("job %d: observed runs %v, alone %v", i, g, w)
		}
		if solo, ok := job.Adv.(*soloGrabber); ok && len(solo.seen) > 1 {
			t.Errorf("job %d: non-cloneable strategy ran on %d workers", i, len(solo.seen))
		}
	}
	return failed
}

// TestEstimateJobsNoRuns: a job without runs reports ErrNoRuns and
// leaves the other jobs' reports untouched.
func TestEstimateJobsNoRuns(t *testing.T) {
	jobs := []Job{{Adv: &grabber{}, Runs: 0, Seed: 1}, {Adv: &grabber{}, Runs: 40, Seed: 2}}
	got := EstimateJobs(flipProtocol{}, jobs, StandardPayoff(), uniformInputs, WithParallelism(2))
	if got[0].Err != ErrNoRuns {
		t.Errorf("zero-run job: %v, want ErrNoRuns", got[0].Err)
	}
	want, err := EstimateUtility(flipProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Err != nil || !reflect.DeepEqual(got[1].UtilityReport, want) {
		t.Errorf("second job: %+v (err %v), want %+v", got[1].UtilityReport, got[1].Err, want)
	}
}
