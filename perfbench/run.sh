#!/usr/bin/env bash
# Builds the pitract server and the benchmark from source into .bench_build
# at the repository root, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload probe-uniform --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pitract" ]]; then
	echo "perfbench: no pitract source (go.mod, cmd/pitract) at $root" >&2
	exit 1
fi
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
# The go command starts a detached telemetry process (its own session, so
# it outlives the build) unless the mode file says off.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$root" && go build -o "$build/bin/pitract" ./cmd/pitract) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -server "$build/bin/pitract" -work "$build/tmp" "$@"
