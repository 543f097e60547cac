#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash rvbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span files all go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The build
# fails, and the script exits non-zero, when the checkout lacks the
# program's sources.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd rvbench && go build -o "$build/rvbench" .)
exec "$build/rvbench" --out "$build/rvbench-out" "$@"
