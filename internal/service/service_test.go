package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// newTestPool builds a small pool with caching on.
func newTestPool(t *testing.T, workers int) *Pool {
	t.Helper()
	p := New(Config{Workers: workers, CacheSize: 64, Parallelism: 2})
	t.Cleanup(p.Close)
	return p
}

// tinySweepSpec is a fast single-family sweep for job tests.
func tinySweepSpec() sweep.Spec {
	spec := sweep.DefaultSpec()
	spec.Families = []string{"pi1"}
	spec.Gammas = sweep.StandardGammas()[:1]
	spec.Ns = []int{2}
	spec.Costs = []string{"zero"}
	spec.AbortSweep = false
	spec.Runs = 60
	spec.Seed = 7
	return spec
}

// TestEstimateMatchesCore pins the service determinism contract: an
// estimate job — fresh and cache-hit — returns the very bits a direct
// core.EstimateUtility call computes for the same (params, seed).
func TestEstimateMatchesCore(t *testing.T) {
	params := EstimateParams{Proto: "2sfe-opt", Adv: "lock-abort:1", Runs: 150, Seed: 42}
	proto, sampler, err := BuildProtocol(params.Proto)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := BuildAdversary(params.Adv, proto.NumParties())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EstimateUtility(proto, adv, core.StandardPayoff(), sampler, params.Runs, params.Seed)
	if err != nil {
		t.Fatal(err)
	}

	p := newTestPool(t, 2)
	for round, wantHit := range []bool{false, true} {
		j, err := p.Submit(params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("round %d: CacheHit = %v, want %v", round, res.CacheHit, wantHit)
		}
		if !reflect.DeepEqual(*res.Estimate, want) {
			t.Fatalf("round %d: service report %+v != core report %+v", round, *res.Estimate, want)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(res.Estimate)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("round %d: JSON bodies differ:\n got %s\nwant %s", round, gotJSON, wantJSON)
		}
		if wantHit && res.Metrics != (sim.Metrics{}) {
			t.Fatalf("cache hit carried job metrics %+v, want zero", res.Metrics)
		}
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Completed != 2 || st.CacheHits != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 2 submitted / 2 completed / 1 hit / 0 failed", st)
	}
}

// TestCacheKeyExcludesScheduling: parallelism is scheduling-only, so
// pools at different parallelism key the same params alike and return
// the same report.
func TestCacheKeyExcludesScheduling(t *testing.T) {
	params := EstimateParams{Proto: "pi2", Adv: "agen", Runs: 100, Seed: 5}
	var results [2]*Result
	for i, par := range []int{1, 4} {
		p := New(Config{Workers: 1, CacheSize: 64, Parallelism: par})
		j, err := p.Submit(params)
		if err != nil {
			p.Close()
			t.Fatal(err)
		}
		results[i], err = j.Wait()
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	r1, r2 := results[0], results[1]
	if r1.Key == 0 || r1.Key != r2.Key {
		t.Fatalf("keys differ: %x vs %x — scheduling leaked into the key", r1.Key, r2.Key)
	}
	if !reflect.DeepEqual(r1.Estimate, r2.Estimate) {
		t.Fatalf("reports differ across parallelism: %+v vs %+v", r1.Estimate, r2.Estimate)
	}
}

// TestSupJob checks a sup job against a direct core.SupUtility call.
func TestSupJob(t *testing.T) {
	params := SupParams{Proto: "2sfe-opt", Advs: []string{"passive", "lock-abort:1", "agen"}, Runs: 80, Seed: 9}
	proto, sampler, err := BuildProtocol(params.Proto)
	if err != nil {
		t.Fatal(err)
	}
	advs := make([]core.NamedAdversary, len(params.Advs))
	for i, name := range params.Advs {
		a, err := BuildAdversary(name, proto.NumParties())
		if err != nil {
			t.Fatal(err)
		}
		advs[i] = core.NamedAdversary{Name: name, Adv: a}
	}
	want, err := core.SupUtility(proto, advs, core.StandardPayoff(), sampler, params.Runs, params.Seed)
	if err != nil {
		t.Fatal(err)
	}

	p := newTestPool(t, 2)
	j, err := p.Submit(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Sup, want) {
		t.Fatalf("sup job %+v != core %+v", *res.Sup, want)
	}
	if j2, _ := p.Submit(params); j2 != nil {
		if r2, err := j2.Wait(); err != nil || !r2.CacheHit {
			t.Fatalf("sup resubmission: hit=%v err=%v", r2.CacheHit, err)
		}
	}
}

// TestSweepJob checks a sweep job reproduces sweep.Run exactly.
func TestSweepJob(t *testing.T) {
	spec := tinySweepSpec()
	want, err := sweep.Run(spec, "", nil)
	if err != nil {
		t.Fatal(err)
	}

	p := newTestPool(t, 1)
	var seen int
	j, err := p.Submit(SweepParams{Spec: spec}, WithProgress(func(done, total int, rec sweep.Record, resumed bool) {
		seen++
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Breached {
		t.Fatal("tiny sweep breached unexpectedly")
	}
	if !reflect.DeepEqual(res.Sweep.Records, want.Records) {
		t.Fatalf("sweep job records differ from direct sweep.Run")
	}
	if seen != len(want.Records) {
		t.Fatalf("progress saw %d records, want %d", seen, len(want.Records))
	}

	// A progress callback is execution-local: the resubmission must
	// re-execute (no cache read) yet produce identical records.
	seen = 0
	j2, err := p.Submit(SweepParams{Spec: spec}, WithProgress(func(int, int, sweep.Record, bool) { seen++ }))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("job with progress callback was served from cache; side effects were skipped")
	}
	if seen != len(want.Records) {
		t.Fatalf("resubmitted progress saw %d records, want %d", seen, len(want.Records))
	}

	// Without local options the third submission is free.
	j3, err := p.Submit(SweepParams{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := j3.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit {
		t.Fatal("plain sweep resubmission missed the cache")
	}
	if !reflect.DeepEqual(r3.Sweep.Records, want.Records) {
		t.Fatal("cached sweep records differ")
	}
}

// TestValidation exercises Submit's eager rejection of malformed params,
// and checks that no rejection repeats a segment of its error prefix,
// such as "service: sweep: sweep: …".
func TestValidation(t *testing.T) {
	p := newTestPool(t, 1)
	unknownFamily := sweep.DefaultSpec()
	unknownFamily.Families = []string{"no-such-family"}
	cases := []Params{
		EstimateParams{Proto: "no-such-proto", Adv: "agen", Runs: 10, Seed: 1},
		EstimateParams{Proto: "pi1", Adv: "no-such-adv", Runs: 10, Seed: 1},
		EstimateParams{Proto: "pi1", Adv: "agen", Runs: 0, Seed: 1},
		SupParams{Proto: "pi1", Advs: nil, Runs: 10, Seed: 1},
		SupParams{Proto: "pi1", Advs: []string{"passive", "bogus"}, Runs: 10, Seed: 1},
		SweepParams{Spec: sweep.Spec{Families: []string{"no-such-family"}}},
		SweepParams{Spec: unknownFamily},
	}
	for i, params := range cases {
		_, err := p.Submit(params)
		if err == nil {
			t.Errorf("case %d (%+v): Submit accepted invalid params", i, params)
			continue
		}
		seen := map[string]bool{}
		for _, seg := range strings.Split(err.Error(), ": ") {
			if seen[seg] {
				t.Errorf("case %d: error %q repeats the prefix segment %q", i, err, seg)
				break
			}
			seen[seg] = true
		}
	}
	if st := p.Stats(); st.Submitted != 0 {
		t.Fatalf("invalid submissions counted: %+v", st)
	}
}

// TestPoolClose pins Submit-after-Close and double-Close behavior.
func TestPoolClose(t *testing.T) {
	p := New(Config{Workers: 1})
	p.Close()
	p.Close()
	if _, err := p.Submit(EstimateParams{Proto: "pi1", Adv: "agen", Runs: 10, Seed: 1}); err != ErrClosed {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}
