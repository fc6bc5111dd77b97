#!/usr/bin/env bash
# Builds prox-server and the benchmark from this checkout, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ml-cold --seed 1 --seconds 36 --trace 0
#
# Build outputs, the Go build cache, spans and server scratch data all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/prox-server" ./cmd/prox-server
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --server "$out/prox-server" --out "$out" "$@"
