#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload meta-read --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
