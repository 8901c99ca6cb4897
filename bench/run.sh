#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root with
# the given arguments. The Go build cache, module cache and tool settings all
# stay under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
