#!/usr/bin/env bash
# Builds the host-cost benchmark from the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload cg-b-p64 --seed 1 --seconds 42 --trace 0
#
# Every build artifact, the Go build cache included, stays under the
# build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp" "$out/config"

env GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
	go -C hostbench build -o "$out/hostbench" .

exec "$out/hostbench" "$@"
