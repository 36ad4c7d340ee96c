#!/usr/bin/env bash
# bench/ is a Go module of its own, so `go build ./... && go test ./...` at the
# repository root neither compiles nor tests it. This script does: it vets the
# harness and runs its unit tests against the program as it is now, so a
# refactor of the internal packages that breaks the harness shows here (and in
# every benchmark run, which builds the harness from source first).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go vet -C "$here" .
go test -C "$here" -count=1 .
