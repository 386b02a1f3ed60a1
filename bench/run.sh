#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build and runs it.
# Everything the build writes (Go build cache, module cache and the go
# command's telemetry counters included) stays inside the checkout;
# arguments are passed through to the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/volbench" .)
exec "$build/volbench" -out "$here/out" "$@"
