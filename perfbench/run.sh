#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload iterate-host --seed 1 --seconds 15 --trace 0
#
# Everything it writes — the Go build cache, the toolchain's config
# and telemetry files, the binary, engine scratch files and span files —
# stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build" "$@"
