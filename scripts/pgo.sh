#!/usr/bin/env bash
# pgo.sh — regenerate or check cmd/ricasim/default.pgo.
#
# `go build ./cmd/ricasim` picks a default.pgo beside main.go up under
# Go's default -pgo=auto, so the checked-in profile is a build input of
# every ricasim anyone builds, the benchmark's included. A profile only
# steers inlining, devirtualisation and code layout: a stale one loses
# some of the gain and can never change a result.
#
#   scripts/pgo.sh          re-take the profile from this tree: a -pgo=off
#                           build run over the four CLI shapes the
#                           benchmark's workloads are made of (a figure,
#                           an N=500 cell, a mixed grid, the paper's cell
#                           under -checkpoint), at a seed the benchmark
#                           does not use, merged into one file. ≈ 30 s.
#   scripts/pgo.sh --check  CI: the file exists, parses, and a fresh
#                           `go build ./cmd/ricasim` says it was used.
#
# Re-take it after a change that moves where ricasim spends its time
# (DESIGN.md, "Profile-guided build").
set -euo pipefail
cd "$(dirname "$0")/.."

pgo=cmd/ricasim/default.pgo
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "${1:-}" = "--check" ]; then
  [ -s "$pgo" ] || { echo "pgo: $pgo is missing or empty" >&2; exit 1; }
  go tool pprof -raw "$pgo" > "$tmp/raw" 2>&1 || { echo "pgo: $pgo does not parse as a profile" >&2; exit 1; }
  grep -q '^Samples:' "$tmp/raw" || { echo "pgo: $pgo holds no samples" >&2; exit 1; }
  go build -o "$tmp/ricasim" ./cmd/ricasim
  if ! go version -m "$tmp/ricasim" | grep -q -- "-pgo=.*default\.pgo"; then
    echo "pgo: go build ./cmd/ricasim did not pick $pgo up:" >&2
    go version -m "$tmp/ricasim" | grep -e '-pgo' >&2 || true
    exit 1
  fi
  echo "pgo: OK — $pgo ($(wc -c < "$pgo") bytes) parses and go build uses it"
  exit 0
fi
[ $# -eq 0 ] || { echo "usage: scripts/pgo.sh [--check]" >&2; exit 2; }

seed=7001
go build -pgo=off -o "$tmp/ricasim" ./cmd/ricasim
run() { # run NAME ARGS… — one profiled process
  local name=$1; shift
  echo "pgo: profiling $name" >&2
  "$tmp/ricasim" "$@" -cpuprofile "$tmp/$name.prof" > /dev/null 2> "$tmp/$name.err" ||
    { cat "$tmp/$name.err" >&2; exit 1; }
}
run figure -figure 2a -trials 12 -duration 20s -speeds 0,36,72 -parallelism 1 -seed $seed
run metro -scenario metro-500 -protocols RICA -trials 1 -duration 20s -parallelism 1 -seed $seed \
  -format json -out "$tmp/metro.json"
run grid -scenario chain-10,grid-8x8,dense-urban,churn-storm,jammer-grid -trials 6 -seed $seed \
  -duration 20s -format json -out "$tmp/grid.json"
for i in 1 2 3 4; do
  run "cell$i" -scenario paper-baseline -protocols RICA -trials 1 -duration 500s -seed $((seed + i)) \
    -checkpoint "$tmp/snapshot" -checkpoint-every 10s
done
go tool pprof -proto "$tmp"/*.prof > "$tmp/merged.pgo"
mv "$tmp/merged.pgo" "$pgo"
echo "pgo: wrote $pgo ($(wc -c < "$pgo") bytes)"
