#!/usr/bin/env bash
# Builds the benchmark from the working tree and runs it with the given
# arguments. Everything the go tool writes (build cache, binary, telemetry)
# goes under .bench_build/ at the root of the checkout, so a run touches
# nothing outside the checkout and never reuses a binary from another tree.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
cd "$here"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto \
	go build -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
