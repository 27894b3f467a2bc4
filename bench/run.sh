#!/usr/bin/env bash
# Build the benchmark from the checkout's source and run it. Everything the
# Go toolchain writes (build cache, temp files, telemetry) is kept under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/continubench" .)
cd "$root"
exec "$build/continubench" "$@"
