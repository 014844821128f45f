package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
)

// cacheHeader is the response header carrying cache-hit status. It is
// a header — not a body field — so that a cache-hit response body is
// byte-identical to the fresh one (the daemon's determinism contract).
const cacheHeader = "X-Fairnessd-Cache"

// defaultMaxBody caps request bodies at 1 MiB. The largest legitimate
// request — a sweep spec with every list populated — is a few KiB, so
// the cap only ever cuts off hostile or accidental floods.
const defaultMaxBody = 1 << 20

// server is the fairnessd HTTP surface over one service pool.
type server struct {
	pool *service.Pool
	// defaultRuns fills estimate/sup requests that omit a run count.
	defaultRuns int
	// maxBody bounds request body bytes (≤0 selects defaultMaxBody).
	maxBody int64
	start   time.Time
	mux     *http.ServeMux
}

func newServer(pool *service.Pool, defaultRuns int, maxBody int64) *server {
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	s := &server{pool: pool, defaultRuns: defaultRuns, maxBody: maxBody, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/sup", s.handleSup)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes a fixed-shape view; views contain no maps with
// non-deterministic ordering, so equal values marshal to equal bytes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorView struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorView{Error: err.Error()})
}

// decodeBody decodes a JSON request body under the server's size cap.
// Oversized bodies answer 413 (MaxBytesReader also closes the
// connection, so the flood stops at the cap rather than being read).
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// statView is the JSON shape of a stats.Estimate.
type statView struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	N         int64   `json:"n"`
}

// engineView is the JSON shape of sim.Metrics.
type engineView struct {
	Runs        int64 `json:"runs"`
	Rounds      int64 `json:"rounds"`
	Messages    int64 `json:"messages"`
	Broadcasts  int64 `json:"broadcasts"`
	Deliveries  int64 `json:"deliveries"`
	Corruptions int64 `json:"corruptions"`
	SetupAborts int64 `json:"setup_aborts"`
}

func engineOf(m sim.Metrics) engineView {
	return engineView{
		Runs: m.Runs, Rounds: m.Rounds, Messages: m.Messages,
		Broadcasts: m.Broadcasts, Deliveries: m.Deliveries,
		Corruptions: m.Corruptions, SetupAborts: m.SetupAborts,
	}
}

// reportView is the JSON shape of a core.UtilityReport.
type reportView struct {
	Utility               statView   `json:"utility"`
	Events                [4]float64 `json:"events"` // Pr[E00], Pr[E01], Pr[E10], Pr[E11]
	CorrectnessViolations float64    `json:"correctness_violations"`
	PrivacyBreaches       float64    `json:"privacy_breaches"`
	MeanCorrupted         float64    `json:"mean_corrupted"`
	Runs                  int        `json:"runs"`
	Engine                engineView `json:"engine"`
}

func reportOf(rep core.UtilityReport) reportView {
	return reportView{
		Utility: statView{Mean: rep.Utility.Mean, HalfWidth: rep.Utility.HalfWidth, N: rep.Utility.N},
		Events: [4]float64{
			rep.EventFreq[core.E00], rep.EventFreq[core.E01],
			rep.EventFreq[core.E10], rep.EventFreq[core.E11],
		},
		CorrectnessViolations: rep.CorrectnessViolations,
		PrivacyBreaches:       rep.PrivacyBreaches,
		MeanCorrupted:         rep.MeanCorrupted,
		Runs:                  rep.Runs,
		Engine:                engineOf(rep.Metrics),
	}
}

// estimateResponse is the /v1/estimate body.
type estimateResponse struct {
	Proto  string     `json:"proto"`
	Adv    string     `json:"adv"`
	Gamma  [4]float64 `json:"gamma"`
	Runs   int        `json:"runs"`
	Seed   int64      `json:"seed"`
	Report reportView `json:"report"`
}

func (s *server) fillRuns(runs int) int {
	if runs <= 0 {
		return s.defaultRuns
	}
	return runs
}

func markCache(w http.ResponseWriter, res *service.Result) {
	if res.CacheHit {
		w.Header().Set(cacheHeader, "hit")
	} else {
		w.Header().Set(cacheHeader, "miss")
	}
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var params service.EstimateParams
	if !s.decodeBody(w, r, &params) {
		return
	}
	params.Runs = s.fillRuns(params.Runs)
	// Synchronous job: tie its lifetime to the request so a client that
	// hangs up frees the queue slot instead of burning a worker.
	job, err := s.pool.Submit(params, service.WithJobContext(r.Context()))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := job.Wait()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	markCache(w, res)
	g := resolveGamma(params.Gamma, params.Proto)
	writeJSON(w, http.StatusOK, estimateResponse{
		Proto: params.Proto, Adv: params.Adv, Gamma: g,
		Runs: params.Runs, Seed: params.Seed,
		Report: reportOf(*res.Estimate),
	})
}

func resolveGamma(g *[4]float64, proto string) [4]float64 {
	if g != nil {
		return *g
	}
	d := service.DefaultPayoff(proto)
	return [4]float64{d.G00, d.G01, d.G10, d.G11}
}

// strategyView is one sup-search strategy's outcome.
type strategyView struct {
	Name   string     `json:"name"`
	Report reportView `json:"report"`
}

// supResponse is the /v1/sup body.
type supResponse struct {
	Proto      string         `json:"proto"`
	Advs       []string       `json:"advs"`
	Gamma      [4]float64     `json:"gamma"`
	Runs       int            `json:"runs"`
	Seed       int64          `json:"seed"`
	Best       string         `json:"best"`
	BestReport reportView     `json:"best_report"`
	Strategies []strategyView `json:"strategies"`
	Engine     engineView     `json:"engine"`
}

func (s *server) handleSup(w http.ResponseWriter, r *http.Request) {
	var params service.SupParams
	if !s.decodeBody(w, r, &params) {
		return
	}
	params.Runs = s.fillRuns(params.Runs)
	// Synchronous like estimate: canceled requests cancel the job.
	job, err := s.pool.Submit(params, service.WithJobContext(r.Context()))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := job.Wait()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	markCache(w, res)
	sup := res.Sup
	strategies := make([]strategyView, 0, len(sup.All))
	names := make([]string, 0, len(sup.All))
	for name := range sup.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		strategies = append(strategies, strategyView{Name: name, Report: reportOf(sup.All[name])})
	}
	writeJSON(w, http.StatusOK, supResponse{
		Proto: params.Proto, Advs: params.Advs, Gamma: resolveGamma(params.Gamma, params.Proto),
		Runs: params.Runs, Seed: params.Seed,
		Best: sup.Best, BestReport: reportOf(sup.BestReport),
		Strategies: strategies, Engine: engineOf(sup.Metrics),
	})
}

// jobView is the async job status body (/v1/sweep, /v1/jobs/{id}).
type jobView struct {
	JobID  uint64 `json:"job_id"`
	Kind   string `json:"kind"`
	Status string `json:"status"` // running | done | failed
	Error  string `json:"error,omitempty"`
	// Sweep is set once a sweep job is done.
	Sweep *sweepView `json:"sweep,omitempty"`
	// Search is set once a search job is done.
	Search *searchView `json:"search,omitempty"`
}

// searchView summarizes a finished best-response search job.
type searchView struct {
	Best           string   `json:"best"`
	Utility        statView `json:"utility"`
	Arms           int      `json:"arms"`
	Waves          int      `json:"waves"`
	TotalRuns      int64    `json:"total_runs"`
	ExhaustiveRuns int64    `json:"exhaustive_runs"`
	Savings        float64  `json:"savings"`
	Replayed       int      `json:"replayed,omitempty"`
	CacheHit       bool     `json:"cache_hit"`
}

// sweepView summarizes a finished sweep job.
type sweepView struct {
	Records     int      `json:"records"`
	TotalChecks int      `json:"total_checks"`
	Breaches    int      `json:"breaches"`
	Resumed     int      `json:"resumed"`
	Skipped     []string `json:"skipped,omitempty"`
	OK          bool     `json:"ok"`
	CacheHit    bool     `json:"cache_hit"`
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var params service.SweepParams
	if !s.decodeBody(w, r, &params) {
		return
	}
	// Deliberately NOT tied to r.Context(): the sweep is async — the 202
	// response ends the request, and the job must outlive it for the
	// client to poll /v1/jobs/{id}.
	job, err := s.pool.Submit(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Async: the client polls GET /v1/jobs/{id}. A cache-hit sweep is
	// already done by the time Submit returns.
	writeJSON(w, http.StatusAccepted, viewOf(job))
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var params service.SearchParams
	if !s.decodeBody(w, r, &params) {
		return
	}
	// Async like sweep: a search can race a large space for minutes, so
	// the job is deliberately NOT tied to r.Context() — the 202 response
	// ends the request and the client polls GET /v1/jobs/{id}. Repeated
	// submissions with equal (params, seed) are cache hits.
	job, err := s.pool.Submit(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(job))
}

func viewOf(job *service.Job) jobView {
	v := jobView{JobID: job.ID, Kind: string(job.Kind), Status: "running"}
	if !job.Finished() {
		return v
	}
	res, err := job.Wait()
	if err != nil {
		v.Status = "failed"
		v.Error = err.Error()
		return v
	}
	v.Status = "done"
	if res.Search != nil {
		sr := res.Search
		v.Search = &searchView{
			Best: sr.Best,
			Utility: statView{
				Mean:      sr.BestReport.Utility.Mean,
				HalfWidth: sr.BestReport.Utility.HalfWidth,
				N:         sr.BestReport.Utility.N,
			},
			Arms: len(sr.Arms), Waves: sr.Waves,
			TotalRuns: sr.TotalRuns, ExhaustiveRuns: sr.ExhaustiveRuns,
			Savings: sr.Savings(), Replayed: sr.Replayed,
			CacheHit: res.CacheHit,
		}
	}
	if res.Sweep != nil {
		v.Sweep = &sweepView{
			Records:     len(res.Sweep.Records),
			TotalChecks: res.Sweep.TotalChecks,
			Breaches:    len(res.Sweep.Breaches),
			Resumed:     res.Sweep.Resumed,
			Skipped:     res.Sweep.Skipped,
			OK:          res.Sweep.OK(),
			CacheHit:    res.CacheHit,
		}
	}
	return v
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id: %w", err))
		return
	}
	job, ok := s.pool.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, viewOf(job))
}

// healthView is the /healthz body.
type healthView struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Jobs          int64   `json:"jobs_submitted"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthView{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Jobs:          s.pool.Stats().Submitted,
	})
}

// handleMetrics renders the pool counters and the merged engine metrics
// in the Prometheus text exposition format, fed by the same
// Observer/Metrics stream every estimate aggregates.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	m := s.pool.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	type row struct {
		name, help string
		value      int64
	}
	rows := []row{
		{"fairnessd_jobs_submitted_total", "Jobs accepted, cache hits included.", st.Submitted},
		{"fairnessd_jobs_completed_total", "Jobs finished successfully.", st.Completed},
		{"fairnessd_jobs_failed_total", "Jobs whose execution errored.", st.Failed},
		{"fairnessd_cache_hits_total", "Submissions served from the result cache.", st.CacheHits},
		{"fairnessd_cache_entries", "Current result-cache population.", st.CacheEntries},
		{"fairness_engine_runs_total", "Simulated protocol executions.", m.Runs},
		{"fairness_engine_rounds_total", "Executed message rounds.", m.Rounds},
		{"fairness_engine_messages_total", "Committed messages.", m.Messages},
		{"fairness_engine_broadcasts_total", "Broadcast messages.", m.Broadcasts},
		{"fairness_engine_deliveries_total", "Inbox deliveries.", m.Deliveries},
		{"fairness_engine_corruptions_total", "Corruption events.", m.Corruptions},
		{"fairness_engine_setup_aborts_total", "Aborted hybrid setups.", m.SetupAborts},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			r.name, r.help, r.name, typeOf(r.name), r.name, r.value)
	}
	fmt.Fprintf(w, "# HELP fairnessd_uptime_seconds Seconds since daemon start.\n"+
		"# TYPE fairnessd_uptime_seconds gauge\nfairnessd_uptime_seconds %.3f\n",
		time.Since(s.start).Seconds())
}

func typeOf(name string) string {
	if name == "fairnessd_cache_entries" {
		return "gauge"
	}
	return "counter"
}
