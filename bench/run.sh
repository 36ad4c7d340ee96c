#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ and runs it from the repository root with the given arguments.
# The Go build cache, temporary files and the toolchain's own config directory
# are all kept under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$here" -o "$build/edgebench" .
cd "$root"
exec "$build/edgebench" "$@"
