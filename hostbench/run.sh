#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash hostbench/run.sh --workload big-run --seed 0 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd hostbench && go build -o "$out/hostbench" .) >&2
exec "$out/hostbench" "$@"
