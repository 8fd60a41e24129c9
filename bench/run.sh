#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#   bash bench/run.sh --workload hot-router-db --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare -base runs/base -change runs/change
#
# Build outputs, the Go build cache, the build's temporary files and the
# ground-truth cache all live in .bench_build/ under the current directory,
# so nothing is read or written outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

# The bench module resolves the repository through `replace => ../`, so a
# directory holding only bench/ fails here, before any result is printed.
(cd bench && go build -o "$out/exactsim-bench" .)
exec "$out/exactsim-bench" "$@"
