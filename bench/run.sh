#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#   bash bench/run.sh --workload replay-burst --seed 1 --seconds 22 --trace 0
# Build outputs and the Go build cache stay in .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of an RFIPad checkout (go.mod, internal/ and bench/ not found)" >&2
	exit 1
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd bench && go build -o "$out/rfipad-bench" .)
exec "$out/rfipad-bench" "$@"
