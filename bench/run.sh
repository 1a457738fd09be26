#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write (Go's build cache
# and temporary files, the binary, scratch datasets, trace files) lands in
# .bench_build at the root of the checkout, which .gitignore names.
#
#   bash bench/run.sh --workload nc-disk-io --seed 3 --seconds 24 --trace 0
#   bash bench/run.sh -seed 1 -trace          # all four workloads
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"

# bench is a module of its own (bench/go.mod) that replaces the module
# "repro" with the parent directory; both have no dependency outside the
# standard library, so the build needs no network.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/mariusbench" .
exec "$build/mariusbench" "$@"
