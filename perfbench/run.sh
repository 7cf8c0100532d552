#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload central --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all
# stay under .bench_build/ in the checkout. The benchmark module replaces
# bwcluster with the checkout root (perfbench/go.mod), so outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
