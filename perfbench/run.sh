#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see main.go).
#
#   bash perfbench/run.sh --workload paper_sum --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and scratch files stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off GOTOOLCHAIN=local
export GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build/run" "$@"
