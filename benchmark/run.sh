#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# like everything else it writes) and runs it with the given arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/parhip-bench" .
exec "$build/parhip-bench" "$@"
