#!/usr/bin/env bash
# Builds wmbench from this checkout and runs it:
#
#   bash wmbench/run.sh --workload ingest|dashboard|figures --seed N --seconds S --trace 0|1
#
# Run from the checkout root. Everything the build and the run write (Go
# build cache, temporary files, archives) stays under .bench_build/, and the
# Go toolchain is kept offline. Traced runs leave their span log in
# .bench_build/runs/. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/runs"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off TMPDIR="$build/gotmp"

go build -C wmbench -o "$build/wmbench" .
exec "$build/wmbench" --dir "$build/runs" "$@"
