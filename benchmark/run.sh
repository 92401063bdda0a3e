#!/usr/bin/env bash
# Builds the benchmark and the unmodified cmd/pqserve from source, then
# runs the benchmark from the repository root with whatever arguments it
# was given. Everything it writes — Go's build cache, the two binaries,
# scratch indexes, results — lands under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local

# The benchmark is its own module (benchmark/go.mod) that replaces the
# pqgram module with the checkout it sits in, so both builds compile the
# sources of this checkout and fail if they are not there.
(cd "$here" && go build -o "$build/bin/benchmark" . && go build -o "$build/bin/pqserve" pqgram/cmd/pqserve)

cd "$root"
BENCH_PQSERVE="$build/bin/pqserve" BENCH_BUILD_DIR="$build" exec "$build/bin/benchmark" "$@"
