#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root; every flag is passed to the benchmark, for example
#
#   bash perfbench/run.sh --workload websql-ppb --seed 1 --seconds 30 --trace 0
#
# Build outputs, inputs, spans and profiles all stay under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's cache, settings and temporary files inside the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
