#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it once; every
# argument is passed through (see main.go). Run it from the repository root:
#
#   bash perfbench/run.sh --workload radix-membound --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the Go tool's configuration and telemetry,
# and the temporary files stay under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
