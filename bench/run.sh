#!/usr/bin/env bash
# Builds the benchmark harness from the sources of this checkout and runs
# it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload characterize --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out bench/results/run.json      # every workload
#   bash bench/run.sh -compare parent*.json -- change*.json
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository root: the Go build cache, the toolchain's user config
# (telemetry counters), the harness binary and the scratch files of the
# campaign and tracegen workloads.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root: it needs go.mod and bench/go.mod" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/work" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd bench && go build -buildvcs=false -o "$build/mtbench" .)
exec "$build/mtbench" -workdir "$build/work" -benchmark "$root/BENCHMARK.json" "$@"
