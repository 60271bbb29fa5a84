#!/usr/bin/env bash
# Builds the application benchmark from source and runs it with the given
# arguments. Run from the repository root; the build cache, the binary
# and the traced runs' spans all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/appbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/appbench" && go build -buildvcs=false -o "$out/appbench" .)
exec "$out/appbench" "$@"
