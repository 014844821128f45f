#!/usr/bin/env bash
# Builds fairnessd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write — binaries, the Go build cache,
# Go's temporary and config directories, traced-run spans — stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/fairnessd" ./cmd/fairnessd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/fairnessd" -trace-dir "$out/traces" "$@"
