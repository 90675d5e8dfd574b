#!/usr/bin/env bash
# Builds the replay benchmark and runs it. Run it from the repository root:
#
#   bash bench/run.sh --workload lu-sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries, the generated inputs and every output
# stay under .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
work="$PWD/.bench_build"
mkdir -p "$work/home"
export GOCACHE="$work/gocache" HOME="$work/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$work/bin/bench" .
exec "$work/bin/bench" -root "$here/.." -work "$work" -golden "$here/golden.json" "$@"
