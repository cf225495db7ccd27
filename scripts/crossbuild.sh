#!/usr/bin/env bash
# crossbuild.sh — hold "byte-identical" across the builds this repo proves.
#
# Builds ./cmd/ricasim three ways — GOARCH=amd64 GOAMD64=v1 (the default
# build), GOARCH=amd64 GOAMD64=v3, GOARCH=386 — and runs the v1 binary a
# fourth time with GODEBUG=cpu.fma=off (math.Exp's amd64 assembly picks
# an FMA path at run time; this turns it off). Each of the four writes
#   - the stdout of `-figure 2a -trials 1 -duration 20s -speeds 0,36,72`
#   - the JSON export of `-scenario metro-500 -protocols RICA -trials 1
#     -duration 10s`
# and every output must be cmp-equal to the v1 binary's. The host must
# run amd64 v3 code (AVX2, BMI2, FMA) and 386 binaries; a GitHub-hosted
# ubuntu runner does. docs/OPERATIONS.md ("Which builds are
# byte-identical") states the domain this proves. Takes about 80 s on a
# 2-vCPU box. Run from anywhere; CI's crash-resume job runs it.
set -euo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

build() { # name, then environment assignments
  local name=$1
  shift
  env "$@" go build -o "$work/ricasim-$name" ./cmd/ricasim
}
build v1 GOARCH=amd64 GOAMD64=v1
build v3 GOARCH=amd64 GOAMD64=v3
build 386 GOARCH=386

run() { # label, binary, then environment assignments
  local label=$1 bin=$2
  shift 2
  env "$@" "$work/ricasim-$bin" -figure 2a -trials 1 -duration 20s \
    -speeds 0,36,72 -parallelism 2 > "$work/fig2a-$label.txt" 2> /dev/null
  env "$@" "$work/ricasim-$bin" -scenario metro-500 -protocols RICA \
    -trials 1 -duration 10s -parallelism 1 -format json \
    -out "$work/metro-$label.json" > /dev/null 2>&1
}
run v1 v1
run v3 v3
run 386 386
run fma-off v1 GODEBUG=cpu.fma=off

fail=0
for label in v3 386 fma-off; do
  for out in fig2a-%s.txt metro-%s.json; do
    ref=$(printf "$out" v1)
    got=$(printf "$out" "$label")
    if cmp -s "$work/$ref" "$work/$got"; then
      echo "same: $got = $ref ($(sha256sum < "$work/$got" | cut -c1-16))"
    else
      echo "DIFFERS: $got != $ref"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "crossbuild: outputs differ across builds" >&2
  exit 1
fi
echo "crossbuild: figure 2a and metro-500 bytes equal across amd64 v1, amd64 v3, 386 and cpu.fma=off"
