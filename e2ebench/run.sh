#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash e2ebench/run.sh --workload engine_slope_k16 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the spans of traced runs stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd e2ebench && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
