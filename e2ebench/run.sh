#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live under .bench_build at the
# root of the checkout, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
