#!/usr/bin/env bash
# Builds the benchmark harness (its own module, bench/go.mod, which uses
# the repository's packages through a replace directive) into
# .bench_build/ and runs it from the repository root with the given
# arguments. The Go caches, temporary files and user configuration all
# live under .bench_build/, so a run writes nothing outside the
# checkout; the build needs no network.
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd bench && go build -o "$build/hlbench" .) >&2
exec "$build/hlbench" "$@"
