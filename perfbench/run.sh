#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload kv-rubin --seed 1 --seconds 15 --trace 0
#
# Build outputs, Go caches and the traced run's span logs and profiles
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp"
export XDG_CACHE_HOME="$build/cache" XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
