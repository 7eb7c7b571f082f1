#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build writes (binary, Go build
# cache, temporary work directory, toolchain bookkeeping) stays under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
HOME="$build/home" GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off \
	go build -C bench -o "$build/jgbench" .
exec "$build/jgbench" -out bench/out "$@"
