#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout: builds
# cmd/bench (a module of its own, replacing the engine with ../..) and runs
# it with the driver's flags. Everything it writes — the Go build cache, the
# binary, the run's data, spans.json — stays under .bench_build/ in that
# checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/bench" .
exec "$build/bench" -dir "$build" "$@"
