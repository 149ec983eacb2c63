#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload readelf-w1 --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the harness binary, and the scratch
# stores the service workload writes.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -scratch "$build/scratch" "$@"
