#!/usr/bin/env bash
# crossbuild.sh — hold "byte-identical" across the builds this repo proves.
#
# Builds ./cmd/ricasim four ways — GOARCH=amd64 GOAMD64=v1 (the default
# build), GOARCH=amd64 GOAMD64=v3, GOARCH=386, and GOARCH=386
# GO386=softfloat (no hardware floating point at all) — and runs the v1
# binary a fifth time with GODEBUG=cpu.fma=off (math.Exp's amd64 assembly
# picks an FMA path at run time; this turns it off). Each run writes
#   - the stdout of `-figure 2a -trials 1 -duration 20s -speeds 0,36,72`
#   - the JSON export of `-scenario metro-500 -protocols RICA -trials 1
#     -duration 10s`, except the soft-float build, whose emulated
#     arithmetic makes that run minutes long
# and every output must be cmp-equal to the v1 binary's. The host must
# run amd64 v3 code (AVX2, BMI2, FMA) and 386 binaries; a GitHub-hosted
# ubuntu runner does. docs/OPERATIONS.md ("Which builds are
# byte-identical") states the domain this proves. Takes about two
# minutes on a 2-vCPU box, half of it building. Run from anywhere; CI's
# crash-resume job runs it.
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
build 386sf GOARCH=386 GO386=softfloat

fig2a() { # label, binary, then environment assignments
  local label=$1 bin=$2
  shift 2
  env "$@" "$work/ricasim-$bin" -figure 2a -trials 1 -duration 20s \
    -speeds 0,36,72 -parallelism 2 > "$work/fig2a-$label.txt" 2> /dev/null
}
metro() { # label, binary, then environment assignments
  local label=$1 bin=$2
  shift 2
  env "$@" "$work/ricasim-$bin" -scenario metro-500 -protocols RICA \
    -trials 1 -duration 10s -parallelism 1 -format json \
    -out "$work/metro-$label.json" > /dev/null 2>&1
}
for label in v1 v3 386; do
  fig2a "$label" "$label"
  metro "$label" "$label"
done
fig2a fma-off v1 GODEBUG=cpu.fma=off
metro fma-off v1 GODEBUG=cpu.fma=off
fig2a 386sf 386sf

fail=0
for label in v3 386 fma-off 386sf; do
  for out in fig2a-%s.txt metro-%s.json; do
    [ -e "$work/$(printf "$out" "$label")" ] || continue # 386sf: figure only
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
echo "crossbuild: figure 2a bytes equal across amd64 v1, amd64 v3, 386, 386 softfloat and cpu.fma=off; metro-500 bytes across all but softfloat"
