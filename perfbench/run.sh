#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# build product and cache stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload <codec-stream|exit-storm|fork-fleet> \
#       --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
