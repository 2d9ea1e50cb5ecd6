#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload campaign-byzantine --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh agree A.ndjson B.ndjson
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

# Build to a private name first so concurrent invocations never exec a
# half-written binary.
tmp="$build/bench.$$"
(cd "$root/bench" && go build -o "$tmp" .)
mv -f "$tmp" "$build/bench"
exec "$build/bench" "$@"
