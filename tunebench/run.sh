#!/usr/bin/env bash
# Builds the tuning service and the benchmark from this checkout and runs
# the benchmark, passing every argument through:
#
#   bash tunebench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build caches, binaries, server logs
# and spans all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters
# in the build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(
	cd "$root/tunebench"
	go build -o "$build/tunebench" .
	go build -o "$build/streamtune" github.com/streamtune/streamtune/cmd/streamtune
)
exec "$build/tunebench" --server "$build/streamtune" --out "$build/tunebench-out" "$@"
