#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; every build product and temporary file stays in .bench_build.
#
#   bash perfbench/run.sh --workload service-mix --seed 3 --seconds 20 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
