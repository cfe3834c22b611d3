#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, from the checkout's root:
#
#   bash trustbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything it writes — the Go build cache, the binary, the stores' data —
# goes under .bench_build in the checkout. The build is offline: it uses
# only the local toolchain and the module's own sources.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/trustbench" && go build -o "$build/trustbench" .)
exec "$build/trustbench" --data "$build" "$@"
