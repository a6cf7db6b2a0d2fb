#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash nfbench/run.sh --workload collusion-dumbbell --seed 1 --seconds 36 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache) stays under .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export XDG_CONFIG_HOME="$out/config"
go -C "$root/nfbench" build -o "$out/nfbench" . >&2
cd "$root"
exec "$out/nfbench" "$@"
