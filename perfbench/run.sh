#!/usr/bin/env bash
# Builds the benchmark and the bmatchd daemon from this checkout's sources
# into .bench_build/ and runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, temporaries) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$out/bmatchd" ./cmd/bmatchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bmatchd "$out/bmatchd" -out "$out" "$@"
