#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the ledger from source and runs
# it with the arguments given, e.g.
#
#   bash bench/run.sh --workload tcp_ctrl --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write — Go's build and module caches, the
# binary, trace files — stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

# HOME keeps the go command's own files (env, telemetry) inside the checkout;
# the rest pins the build to the local toolchain and the local sources.
export HOME="$build/home" GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root"
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
