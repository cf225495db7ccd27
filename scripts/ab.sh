#!/usr/bin/env bash
# ab.sh — an end-to-end A/B of two commits on the repository's benchmark.
#
#   scripts/ab.sh [-o FILE] [-change REV] PARENT [K]
#
# Builds cmd/ricasim at PARENT and at the change (HEAD unless -change
# names another revision), each from a clean `git archive` tree in a
# temp dir and with the default profile (cmd/ricasim/default.pgo), then
# runs `bash benchmark/run.sh -bin <ricasim> -seed s -json F` for
# s = 1..K (default 10) in alternated pairs: odd seeds run the parent
# first, even seeds the change. The harness is the parent tree's
# benchmark/, so nothing in this checkout is read or written but git's
# objects. scripts/abstat.go then prints, per workload and end-to-end
# metric of BENCHMARK.json, both medians, the parent's q1–q3, wins of K
# and resolved|unresolved, and writes FILE (default BENCH_ab.json in the
# temp dir) in the end_to_end schema of the BENCH_<n>.json records,
# listing every run. It exits 1 if a pair disagrees on events,
# result_sha256 or ops_failed. TMPDIR picks where the temp dir goes; it
# is kept, and its path printed, so the raw results stay inspectable.
# All five workloads take about 2 min a side on a 2-vCPU box, so K = 10
# is about 40 min: keep the box otherwise idle.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

out="" change=HEAD
while [ $# -gt 0 ]; do
  case "$1" in
    -o) out=$2; shift 2 ;;
    -change) change=$2; shift 2 ;;
    -*) echo "ab: unknown option $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/ab.sh [-o FILE] [-change REV] PARENT [K]" >&2
  exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$change^{commit}")
k=${2:-10}
if ! [[ "$k" =~ ^[1-9][0-9]*$ ]]; then
  echo "ab: K must be a positive integer, got '$k'" >&2
  exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
out=${out:-$work/BENCH_ab.json}
case "$out" in /*) ;; *) out=$root/$out ;; esac
echo "ab: parent $parent, change $change, $k pairs, work dir $work"

for side in parent change; do
  rev=$parent
  [ "$side" = change ] && rev=$change
  mkdir -p "$work/$side"
  git archive "$rev" | tar -x -C "$work/$side"
  (cd "$work/$side" && go build -o "$work/ricasim-$side" ./cmd/ricasim)
done

mkdir -p "$work/runs"
for s in $(seq 1 "$k"); do
  order="parent change"
  [ $((s % 2)) -eq 0 ] && order="change parent"
  for side in $order; do
    echo "ab: pair $s, $side"
    # run.sh exits 1 when an operation failed but still writes its
    # results; abstat counts the failure. No results file is fatal.
    bash "$work/parent/benchmark/run.sh" -bin "$work/ricasim-$side" -seed "$s" \
      -json "$work/runs/$side-$s.json" > "$work/runs/$side-$s.log" 2>&1 ||
      [ -s "$work/runs/$side-$s.json" ] || {
        echo "ab: benchmark/run.sh failed on the $side side, seed $s; see $work/runs/$side-$s.log" >&2
        exit 1
      }
  done
done

go run scripts/abstat.go -k "$k" -parent "$parent" -change "$change" \
  -benchmark "$work/change/BENCHMARK.json" -o "$out" "$work/runs"
