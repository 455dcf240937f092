#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload daemon-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# stay inside .bench_build/ in the checkout; no network is used.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
