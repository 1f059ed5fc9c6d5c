#!/usr/bin/env bash
# Builds embench from source into .bench_build/ (binary and Go build
# cache both, so nothing is written outside the checkout) and runs it
# with the caller's arguments. Run from the repository root:
#
#   bash bench/run.sh --workload online_single --seed 41 --seconds 12 --trace 0
#   bash bench/run.sh -all
#   bash bench/run.sh -list
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -o "$build/embench" ./embench)
exec "$build/embench" "$@"
