#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-predict --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache and binary under .bench_build/, generated traces
# and cache files under .bench_work/.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench/gocache" "$out/perfbench/tmp"

export GOCACHE="$out/perfbench/gocache"
export GOTMPDIR="$out/perfbench/tmp"
export GOMODCACHE="$out/perfbench/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
