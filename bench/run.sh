#!/usr/bin/env bash
# Builds the benchmark into .bench_build at the checkout root and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh run --workload analyze-live --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare a.json b.json
#
# The Go build cache, temporary files and tool configuration also live under
# .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
cd "$root"
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
