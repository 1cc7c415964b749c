#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload wire-sat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
