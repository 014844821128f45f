// Command fairnessd is the always-on estimation daemon: an HTTP+JSON
// front end over the shared service layer (internal/service), serving
// utility estimates, sup-searches, bound-certifying sweeps, and real
// transport sessions from one bounded worker pool with an LRU result
// cache.
//
// Endpoints:
//
//	POST /v1/estimate  {"proto","adv","gamma"?,"runs","seed"}  → utility report (sync)
//	POST /v1/sup       {"proto","advs",...}                    → sup-search report (sync)
//	POST /v1/search    {"proto","space"?,...}                  → 202 {"job_id"}; poll /v1/jobs/{id}
//	POST /v1/sweep     {"spec":{...}}                          → 202 {"job_id"}; poll /v1/jobs/{id}
//	GET  /v1/jobs/{id}                                         → job status + sweep summary
//	POST /v1/session   {"proto","inputs","seed"}               → one session over loopback TCP
//	GET  /healthz                                              → liveness
//	GET  /metrics                                              → Prometheus text format
//
// Determinism contract: a response is a pure function of the request
// parameters — byte-identical whether computed fresh, served from the
// cache (the X-Fairnessd-Cache header distinguishes the two), or
// produced by the equivalent CLI invocation at any parallelism.
//
// Chaos flags (-drop, -delay, -kill-party, …) apply to /v1/session
// sessions, exercising the transport's fault-injection resilience.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairnessd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fairnessd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	workers := fs.Int("workers", 0, "service pool workers (0 = one per CPU)")
	cacheSize := fs.Int("cache", service.DefaultCacheSize, "result-cache entries (negative disables)")
	est := cliflags.RegisterEstimation(fs, cliflags.EstimationSpec{
		Runs:      1000,
		RunsUsage: "default runs for requests that omit a run count",
		Parallel:  true,
	})
	chaos := cliflags.RegisterChaos(fs)
	maxBody := fs.Int64("max-body-bytes", defaultMaxBody, "request body size limit in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Sessions run over the gob transport; register every protocol
	// family's payload types once.
	contract.RegisterGobTypes()
	twoparty.RegisterGobTypes()
	multiparty.RegisterGobTypes()
	gordonkatz.RegisterGobTypes()

	pool := service.New(service.Config{
		Workers:     *workers,
		CacheSize:   *cacheSize,
		Parallelism: est.Parallel,
	})
	defer pool.Close()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(pool, chaos, est.Runs, *maxBody),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("fairnessd: listening on %s (workers=%d cache=%d default-runs=%d)\n",
		*addr, *workers, *cacheSize, est.Runs)
	return httpSrv.ListenAndServe()
}
