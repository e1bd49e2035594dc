#!/usr/bin/env bash
# Builds fsimperf from the repository's sources and runs it with the given
# arguments, from the root of the checkout. The binary and the Go build
# cache live in .bench_build/ at the root, so a run reads and writes only
# inside the checkout.
#
#   bash bench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1                 # every workload
#   bash bench/run.sh compare bench/results/run-1-*.json -- other/run-1-*.json
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# Without the repository next to bench/ the build fails, and so does the run.
(cd "$root/bench" && go build -o "$out/fsimperf" ./cmd/fsimperf)

cd "$root"
exec "$out/fsimperf" "$@"
