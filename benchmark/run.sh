#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness and hands it
# the arguments; everything the Go toolchain writes while doing so
# (build cache, temp dirs, telemetry, binaries) is kept under
# benchmark/.work, so a run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "$0")"
work="$PWD/.work"
mkdir -p "$work/gocache" "$work/gotmp" "$work/gopath" "$work/config" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath" \
       XDG_CONFIG_HOME="$work/config" PPROF_TMPDIR="$work/gotmp" TMPDIR="$work/gotmp" \
       GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off
go build -o "$work/bin/harness" .
exec "$work/bin/harness" "$@"
