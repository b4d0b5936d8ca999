#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. Everything the build writes (binary, Go build cache) goes under
# .bench_build/; everything a run writes goes under benchmark/out/.
#
#   bash benchmark/run.sh --workload tatp --seed 1 --seconds 15 --trace 0
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build"

# The go command's own files (build cache, telemetry counters, go/env) stay
# inside the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$bench_dir" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
