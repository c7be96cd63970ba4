#!/usr/bin/env bash
# Builds the benchmark and effpid from source, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig9-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/effpid" ./cmd/effpid >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
export PERFBENCH_EXEC_NS=$(date +%s%N)
exec "$out/bin/perfbench" --effpid "$out/bin/effpid" --out "$out" "$@"
