#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — the binary, Go's build cache, its temp
# files and its config directory — stays under .bench_build in the
# checkout, which .gitignore names.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With telemetry on (the default mode is "local"), the first go command
# against a fresh config directory starts a detached child of itself that
# outlives a fast-failing build. Mode "off" starts none.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
