// Command perfbench is the repository benchmark. It runs one named
// workload against the real surfaces — the fairnessd daemon over
// loopback HTTP, or service.Pool jobs submitted the way fairsweep and
// fairsearch submit them — checks every answer, and prints one JSON
// result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (normally through run.sh, which builds the daemon and this
// program from the checkout first):
//
//	perfbench -daemon PATH -workload NAME -seed N -seconds S -trace 0|1
//
// Every run executes a fixed op list generated from -seed (sized from
// -seconds by the workload's nominal rate, see ops.go), never a fixed
// duration. -trace 0 prints the end-to-end metrics; -trace 1 replays
// the same op list untraced and traced, runs the layer probes, writes
// the spans to -trace-dir, and prints the per-layer metrics. README.md
// lists the workloads, the metrics and which layer moves which
// end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	traceDir string
}

// workloads maps each workload name to its runner. A runner returns the
// attempted/failed counts and the metrics of the selected mode; a
// returned error means the run could not be carried out at all (no
// result line is printed).
var workloads = map[string]func(config) (result, error){
	"serve-cold":  runServeCold,
	"serve-hot":   runServeHot,
	"sweep-grid":  runSweepGrid,
	"search-race": runSearchRace,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the op list is a pure function of it")
	fs.IntVar(&cfg.seconds, "seconds", 15, "nominal run length; sizes the op list by the workload's nominal rate")
	fs.IntVar(&trace, "trace", 0, "1 replays the workload traced and prints per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", "", "path to the fairnessd binary built from this checkout")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds < 1 {
		return config{}, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
