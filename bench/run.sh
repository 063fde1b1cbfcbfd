#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given flags, from the repository root. Build outputs, the Go build cache
# and trace files all stay under .bench_build/ in the checkout.
#
#   bash bench/run.sh -reps 5 -o out.json
#   bash bench/run.sh --workload stream-1m --seed 3 --seconds 25 --trace 0
#   bash bench/run.sh compare base.json head.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
