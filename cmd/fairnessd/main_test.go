package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sweep"
)

// newTestServer boots a daemon over a fresh pool on an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *service.Pool) {
	t.Helper()
	pool := service.New(service.Config{Workers: 4, CacheSize: 128, Parallelism: 2})
	t.Cleanup(pool.Close)
	ts := httptest.NewServer(newServer(pool, 1000, 0))
	t.Cleanup(ts.Close)
	return ts, pool
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestEstimateEquivalence is the daemon's determinism pin: /v1/estimate
// answers — fresh and cache-hit — carry exactly the numbers a direct
// core.EstimateUtility call produces for the same (params, seed), and
// the two response bodies are byte-identical.
func TestEstimateEquivalence(t *testing.T) {
	ts, _ := newTestServer(t)
	params := service.EstimateParams{Proto: "2sfe-opt", Adv: "lock-abort:1", Runs: 300, Seed: 42}

	proto, sampler, err := service.BuildProtocol(params.Proto)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := service.BuildAdversary(params.Adv, proto.NumParties())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EstimateUtility(proto, adv, core.StandardPayoff(), sampler, params.Runs, params.Seed)
	if err != nil {
		t.Fatal(err)
	}

	resp1, body1 := postJSON(t, ts.URL+"/v1/estimate", params)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("fresh request: status %d, body %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get(cacheHeader); h != "miss" {
		t.Fatalf("fresh request: %s = %q, want miss", cacheHeader, h)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/estimate", params)
	if h := resp2.Header.Get(cacheHeader); h != "hit" {
		t.Fatalf("repeat request: %s = %q, want hit", cacheHeader, h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache-hit body differs from fresh body:\n%s\n%s", body1, body2)
	}

	var got estimateResponse
	if err := json.Unmarshal(body1, &got); err != nil {
		t.Fatal(err)
	}
	if got.Report.Utility.Mean != want.Utility.Mean ||
		got.Report.Utility.HalfWidth != want.Utility.HalfWidth ||
		got.Report.Utility.N != want.Utility.N {
		t.Fatalf("daemon utility %+v != core %+v", got.Report.Utility, want.Utility)
	}
	for i, ev := range []core.Event{core.E00, core.E01, core.E10, core.E11} {
		if got.Report.Events[i] != want.EventFreq[ev] {
			t.Fatalf("event %d: daemon %v != core %v", i, got.Report.Events[i], want.EventFreq[ev])
		}
	}
	if got.Report.Engine.Runs != want.Metrics.Runs || got.Report.Engine.Messages != want.Metrics.Messages {
		t.Fatalf("daemon engine view %+v != core metrics %+v", got.Report.Engine, want.Metrics)
	}
}

// TestConcurrentBurst fires ~200 concurrent estimation requests with
// cache-hit repeats (the CI smoke runs this under -race) and checks
// every response succeeded and repeats are byte-identical.
func TestConcurrentBurst(t *testing.T) {
	ts, pool := newTestServer(t)
	points := []service.EstimateParams{
		{Proto: "pi1", Adv: "agen", Runs: 80, Seed: 1},
		{Proto: "pi2", Adv: "lock-abort:1", Runs: 80, Seed: 2},
		{Proto: "2sfe-opt", Adv: "lock-abort:2", Runs: 80, Seed: 3},
		{Proto: "2sfe-oneround", Adv: "agen", Runs: 80, Seed: 4},
		{Proto: "gk-pitilde", Adv: "passive", Runs: 80, Seed: 5},
		{Proto: "nsfe-opt:3", Adv: "lock-abort:1", Runs: 80, Seed: 6},
		{Proto: "gk-polydomain:2", Adv: "leak-extractor", Runs: 80, Seed: 7},
	}
	const total = 200

	var (
		mu     sync.Mutex
		bodies = map[int][]byte{}
	)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			point := i % len(points)
			resp, body := postJSON(t, ts.URL+"/v1/estimate", points[point])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := bodies[point]; !ok {
				bodies[point] = body
			} else if !bytes.Equal(prev, body) {
				t.Errorf("point %d: response bodies diverged", point)
			}
		}(i)
	}
	wg.Wait()

	st := pool.Stats()
	if st.Submitted != total {
		t.Fatalf("pool saw %d submissions, want %d", st.Submitted, total)
	}
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed", st.Failed)
	}
	// Single-flight coalescing: exactly one execution per distinct
	// point, every other request a cache hit or follower.
	if want := int64(total - len(points)); st.CacheHits != want {
		t.Fatalf("%d cache hits across %d requests, want %d", st.CacheHits, total, want)
	}
}

// TestSupEndpoint checks /v1/sup against core.SupUtility.
func TestSupEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	params := service.SupParams{
		Proto: "2sfe-opt", Advs: []string{"passive", "lock-abort:1", "agen"}, Runs: 100, Seed: 9,
	}
	resp, body := postJSON(t, ts.URL+"/v1/sup", params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got supResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	proto, sampler, _ := service.BuildProtocol(params.Proto)
	advs := make([]core.NamedAdversary, len(params.Advs))
	for i, name := range params.Advs {
		a, err := service.BuildAdversary(name, proto.NumParties())
		if err != nil {
			t.Fatal(err)
		}
		advs[i] = core.NamedAdversary{Name: name, Adv: a}
	}
	want, err := core.SupUtility(proto, advs, core.StandardPayoff(), sampler, params.Runs, params.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best != want.Best {
		t.Fatalf("best = %q, want %q", got.Best, want.Best)
	}
	if got.BestReport.Utility.Mean != want.BestReport.Utility.Mean {
		t.Fatalf("best utility %v != %v", got.BestReport.Utility.Mean, want.BestReport.Utility.Mean)
	}
	if len(got.Strategies) != len(want.All) {
		t.Fatalf("got %d strategies, want %d", len(got.Strategies), len(want.All))
	}

	// Byte identity on repeat.
	resp2, body2 := postJSON(t, ts.URL+"/v1/sup", params)
	if h := resp2.Header.Get(cacheHeader); h != "hit" {
		t.Fatalf("repeat sup: %s = %q", cacheHeader, h)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated sup bodies differ")
	}
}

// TestSweepAsync submits a sweep, polls the job to completion, and
// checks the summary against a direct sweep.Run.
func TestSweepAsync(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := sweep.DefaultSpec()
	spec.Families = []string{"pi1"}
	spec.Gammas = sweep.StandardGammas()[:1]
	spec.Ns = []int{2}
	spec.Costs = []string{"zero"}
	spec.AbortSweep = false
	spec.Runs = 60
	spec.Seed = 7

	resp, body := postJSON(t, ts.URL+"/v1/sweep", service.SweepParams{Spec: spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var accepted jobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	var final jobView
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, accepted.JobID))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r.Body)
		_ = r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", r.StatusCode, data)
		}
		if err := json.Unmarshal(data, &final); err != nil {
			t.Fatal(err)
		}
		if final.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep job did not finish in time")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final.Status != "done" || final.Sweep == nil {
		t.Fatalf("job = %+v, want done with summary", final)
	}

	want, err := sweep.Run(spec, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Sweep.Records != len(want.Records) || final.Sweep.TotalChecks != want.TotalChecks ||
		final.Sweep.Breaches != len(want.Breaches) || !final.Sweep.OK {
		t.Fatalf("sweep view %+v disagrees with direct run (records=%d checks=%d breaches=%d)",
			final.Sweep, len(want.Records), want.TotalChecks, len(want.Breaches))
	}
}

// TestSearchAsync exercises POST /v1/search end to end: 202 + job ID,
// poll to completion, the view carries the same certified winner a
// direct search.Run finds, and resubmission is a cache hit.
func TestSearchAsync(t *testing.T) {
	ts, _ := newTestServer(t)
	params := service.SearchParams{
		Proto: "pi1", Wave: 40, RaceRuns: 200, FinalRuns: 400, Seed: 11,
	}

	proto, sampler, err := service.BuildProtocol(params.Proto)
	if err != nil {
		t.Fatal(err)
	}
	space, err := service.BuildSpace(params.Space, params.Proto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := search.Run(proto, space, service.DefaultPayoff(params.Proto), sampler, params.Seed, params.Options())
	if err != nil {
		t.Fatal(err)
	}

	poll := func(id uint64) jobView {
		t.Helper()
		var v jobView
		deadline := time.Now().Add(30 * time.Second)
		for {
			r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(r.Body)
			_ = r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Fatalf("poll status %d: %s", r.StatusCode, data)
			}
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatal(err)
			}
			if v.Status != "running" {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatal("search job did not finish in time")
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/search", params)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var accepted jobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	final := poll(accepted.JobID)
	if final.Status != "done" || final.Search == nil {
		t.Fatalf("job = %+v, want done with search view", final)
	}
	if final.Search.Best != want.Best {
		t.Fatalf("daemon best %q, want %q", final.Search.Best, want.Best)
	}
	if final.Search.Utility.Mean != want.BestReport.Utility.Mean ||
		final.Search.TotalRuns != want.TotalRuns || final.Search.Waves != want.Waves {
		t.Fatalf("search view %+v disagrees with direct run (mean=%g runs=%d waves=%d)",
			final.Search, want.BestReport.Utility.Mean, want.TotalRuns, want.Waves)
	}
	if final.Search.CacheHit {
		t.Fatal("first search submission claims a cache hit")
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/search", params)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status %d: %s", resp2.StatusCode, body2)
	}
	var accepted2 jobView
	if err := json.Unmarshal(body2, &accepted2); err != nil {
		t.Fatal(err)
	}
	final2 := poll(accepted2.JobID)
	if final2.Search == nil || !final2.Search.CacheHit {
		t.Fatalf("resubmission job = %+v, want cache hit", final2)
	}
	cached := *final2.Search
	cached.CacheHit = false
	if cached != *final.Search {
		t.Fatalf("cached search view differs beyond the hit flag: %+v vs %+v", final2.Search, final.Search)
	}

	// Malformed search params are rejected at submission, not queued.
	bad, badBody := postJSON(t, ts.URL+"/v1/search", service.SearchParams{Proto: "nsfe-opt:3"})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw space on a 3-party protocol: status %d, body %s", bad.StatusCode, badBody)
	}
}

// TestHealthzAndMetrics checks the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t)
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r.Body)
	_ = r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
	var hv healthView
	if err := json.Unmarshal(data, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "ok" {
		t.Fatalf("healthz = %+v", hv)
	}

	// One estimate so the counters move.
	if resp, body := postJSON(t, ts.URL+"/v1/estimate",
		service.EstimateParams{Proto: "pi1", Adv: "agen", Runs: 50, Seed: 1}); resp.StatusCode != 200 {
		t.Fatalf("estimate: %d %s", resp.StatusCode, body)
	}
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	_ = r.Body.Close()
	for _, metric := range []string{
		"fairnessd_jobs_submitted_total 1",
		"fairnessd_jobs_completed_total 1",
		"fairness_engine_runs_total 50",
	} {
		if !strings.Contains(string(text), metric) {
			t.Fatalf("metrics output missing %q:\n%s", metric, text)
		}
	}
}

// sweepSpecJSON is a valid one-family sweep spec with extra appended
// as its last field(s).
func sweepSpecJSON(extra string) string {
	return `{"Families":["pi1"],"Gammas":[{"G00":0,"G01":0,"G10":1,"G11":0.5}],"Ns":[2],"Runs":60,"Seed":7,` + extra + `}`
}

// TestBadRequests pins the error surface.
func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		path string
		body string
		want int
	}{
		{"/v1/estimate", `{"proto":"nope","adv":"agen","runs":10,"seed":1}`, 400},
		{"/v1/estimate", `{"proto":"pi1","adv":"nope","runs":10,"seed":1}`, 400},
		{"/v1/estimate", `{"bogus_field":1}`, 400},
		{"/v1/estimate", `not json`, 400},
		{"/v1/sup", `{"proto":"pi1","advs":[],"runs":10,"seed":1}`, 400},
		// Removed fields fail loudly instead of being silently ignored.
		{"/v1/search", `{"proto":"pi1","seed":1,"paired_seeds":true}`, 400},
		{"/v1/sweep", `{"spec":` + sweepSpecJSON(`"PairedSeeds":true`) + `}`, 400},
		{"/v1/sweep", `{"spec":` + sweepSpecJSON(`"NoCompiledPlans":true`) + `}`, 400},
		{"/v1/sweep", `{"spec":` + sweepSpecJSON(`"BatchSize":8`) + `}`, 400},
		// A false-breach budget of 1 or more certifies nothing.
		{"/v1/sweep", `{"spec":` + sweepSpecJSON(`"Delta":2`) + `}`, 400},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %s %s: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
		}
	}
	r, err := http.Get(ts.URL + "/v1/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
}
