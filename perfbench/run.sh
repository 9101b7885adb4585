#!/usr/bin/env bash
# Builds the daily-cycle benchmark from this checkout's sources and runs it.
# Run from the repository root. Everything the go command writes (build and
# module caches, its config and telemetry directory, the binary) stays under
# .bench_build/ there. Arguments pass through:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
