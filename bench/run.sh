#!/usr/bin/env bash
# Builds dtaperf from the checkout's sources and runs it with the given
# arguments, from the root of the checkout. Everything the build and the
# run leave behind stays under .bench_build/ (or $CARGO_TARGET_DIR, which
# the driver points there).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local
# The benchmark is a module of its own (bench/go.mod) that replaces the
# product module with the checkout around it; without the product
# sources the build fails, and so does the run.
go build -C bench -o "$out/dtaperf" ./dtaperf
exec "$out/dtaperf" "$@"
