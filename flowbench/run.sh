#!/usr/bin/env bash
# Builds the benchmark and cmd/flowd from source into .bench_build/ at
# the repository root, then runs the benchmark with the given arguments.
# Run from the repository root:
#
#   bash flowbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

(
  cd "$root/flowbench"
  go build -o "$out/flowbench" .
  go build -o "$out/flowd" repro/cmd/flowd
) >&2

exec "$out/flowbench" -root "$root" -flowd "$out/flowd" "$@"
