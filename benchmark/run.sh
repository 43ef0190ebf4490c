#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as: bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Everything written (Go build cache, the binary, WAL directories, span
# files) goes under .bench_build/ in that checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters under the
# user's configuration directory.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/elmo-benchmark" .)
exec "$build/elmo-benchmark" -tmp "$build/tmp" "$@"
