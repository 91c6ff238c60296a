#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root,
# passing every argument through. The driver's entry point (see
# ../BENCHMARK.json); people can as well run `go run .` in this directory.
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# is pointed into bench/.build, so a run reads and writes only inside the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/bench/.build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
