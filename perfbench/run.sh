#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload solve --seed 300 --seconds 36 --trace 0
#
# Every Go cache and the binary stay under .bench_build/ in the checkout
# (the Go toolchain itself is the only thing read from outside), and no
# module or toolchain is ever downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

# Build under a per-process name and rename, so two runs sharing a
# checkout never execute a half-written binary.
tmp="$out/perfbench.$$"
(cd "$root/perfbench" && go build -buildvcs=false -o "$tmp" .)
mv -f "$tmp" "$out/perfbench"
exec "$out/perfbench" "$@"
