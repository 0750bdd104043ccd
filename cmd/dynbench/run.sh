#!/usr/bin/env bash
# The benchmark's build file and entry point. Run from the repository
# root (BENCHMARK.json names this script as the command):
#
#   bash cmd/dynbench/run.sh --workload flat_750 --seed 1 --seconds 15 --trace 0
#
# It compiles dynbench and the dynplaced daemon from the checkout into
# .bench_build/ — Go's build cache, temporary files, state directories
# and result files all stay inside the checkout — and runs one workload.
# The last line of standard output is the result as one JSON object.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dynplaced" ]; then
	echo "run.sh: run from the root of a dynplace checkout (go.mod and cmd/dynplaced not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work" "$build/out"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -o "$build/dynbench" ./cmd/dynbench
go build -o "$build/dynplaced" ./cmd/dynplaced

exec "$build/dynbench" -out "$build/out" -workdir "$build/work" -dynplaced "$build/dynplaced" "$@"
