#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it
# writes inside the checkout: the go build cache and temp files under
# .bench_build/ at the root, spans and scratch data under bench/out/.
#
#   bash bench/run.sh --workload ycsb-quorum --seed 1 --seconds 12 --trace 0
#
# With the module sources missing (a directory holding only bench/ and
# BENCHMARK.json) the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
