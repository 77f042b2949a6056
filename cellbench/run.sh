#!/usr/bin/env bash
# Builds the cellcars benchmark from this checkout's sources and runs
# it, passing every argument through:
#
#   bash cellbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a cellcars checkout. Everything it writes —
# the Go build cache, the binary, generated inputs, result records —
# stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cellbench/go.mod" ]]; then
	echo "cellbench: run from the root of a cellcars checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/cellbench" && go build -o "$build/cellbench" .)
exec "$build/cellbench" "$@"
