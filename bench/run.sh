#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary under .bench_build/, traces,
# results and snapshot directories under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$here/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/crdtbench" .)
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/crdtbench" -out "$here/out" -commit "$commit" "$@"
