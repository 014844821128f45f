package sim

// Plan is an empty placeholder: every run executes on an Arena (or a
// one-shot Execution), whose RNG streams compute each value when it is
// drawn, so there is nothing to compile.
//
// Deprecated: Plan and CompilePlan remain only for the benchmark
// harness's core.compile_plan_us probe (perfbench/probes.go), which
// times CompilePlan and discards the result.
type Plan struct{}

// CompilePlan returns an empty Plan and a nil error without running
// anything.
//
// Deprecated: see Plan. The one caller is perfbench/probes.go.
func CompilePlan(Protocol, Adversary) (*Plan, error) { return &Plan{}, nil }
