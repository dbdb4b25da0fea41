#!/usr/bin/env bash
# Builds the reference benchmark from source and runs it. Run from the
# repository root; every argument is passed to the harness, e.g.
#
#   bash refbench/run.sh --workload xmark-analytic --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, temporary repositories and span files
# all stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/refbench" && go build -o "$build/refbench" .)
exec "$build/refbench" --root "$root" "$@"
