#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload embed-btree-hot --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the WAL directories of
# the durable workload stay under the build directory ($CARGO_TARGET_DIR
# when set, otherwise .bench_build), so a run writes nothing outside the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --build-dir "$build" "$@"
