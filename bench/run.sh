#!/usr/bin/env bash
# Builds the shipped CLIs (advm-regress, advm-served) and the benchmark
# into .bench_build, then runs the benchmark with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload matrix-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build: the Go
# build cache, the go command's config and telemetry directory, temporary
# files, stores, bundles and Chrome traces.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/advm-regress || ! -d cmd/advm-served || ! -f bench/go.mod ]]; then
  echo "bench/run.sh: run from the repository root; the ADVM sources (go.mod, cmd/) are missing" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/" ./cmd/advm-regress ./cmd/advm-served
(cd bench && go build -o "$out/bin/advm-bench" .)
exec "$out/bin/advm-bench" -bin "$out/bin" -work "$out" "$@"
