#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload zoo --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Everything the build writes (compiled
# packages, the binary, temporary files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
