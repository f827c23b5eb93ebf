#!/usr/bin/env bash
# Builds and runs the decwi benchmark. Run it from the root of a checkout:
#
#   bash bench/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1|FILE] [--json FILE]
#   bash bench/run.sh -compare A.json ... -- B.json ...
#
# The Go build cache, temporary files and both binaries (the benchmark and
# decwi-served) stay under .bench_build/ in the checkout, and the toolchain
# never reaches the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go -C bench build -o "$out/decwi-bench" .
exec "$out/decwi-bench" "$@"
