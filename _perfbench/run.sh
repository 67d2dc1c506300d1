#!/usr/bin/env bash
# Builds the benchmark and trajserver from the checkout it is run in, then
# runs one workload. Run from the repository root:
#
#   bash _perfbench/run.sh --workload live-ingest --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$root/_perfbench" -o "$out/perfbench" . >&2
go build -o "$out/trajserver" ./cmd/trajserver >&2
exec "$out/perfbench" -root "$root" -out "$out" -trajserver "$out/trajserver" "$@"
