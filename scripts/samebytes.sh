#!/usr/bin/env bash
# samebytes.sh — show that a change moves no simulated byte.
#
#   scripts/samebytes.sh [-change REV] PARENT
#
# Builds cmd/ricasim at PARENT and at the change (HEAD unless -change
# names another revision), each from a clean `git archive` tree in a
# temp dir with the default profile, as scripts/ab.sh does, and requires
# cmp-equal output from the two binaries on:
#   - the stdout of `-figure 2a -trials 1 -duration 20s -speeds 0,36,72`
#     for seeds 1-3;
#   - the paper-baseline cell (500 s, seed 1) under RICA and LinkState
#     with a snapshot every 70 s: the snapshot, the stdout, and the stdout
#     of each binary resuming the other binary's snapshot;
#   - every catalog scenario × protocol run for 3 s with a snapshot every
#     1 s: the snapshot and the stdout;
#   - the JSON exports of the benchmark's metro-500 cell (RICA, 10 s) and
#     of its grid-serve grid (five scenarios × five protocols × two
#     trials, 20 s), once the effort counters are stripped.
# The effort counters (obs.effortCounters: chan_class_hits,
# chan_dist_misses, chan_grid_rebuilds, chan_annulus_checks) say how the
# channel computed an answer, not what it was, so a fast-path change may
# move them; the script prints each one that moved, with its sum over
# the export's cells on each side. Any other difference exits 1. Use it
# for any change that claims to leave results alone. For uncommitted
# work, `git add -A` and pass `-change $(git stash create)`. TMPDIR picks
# where the temp dir goes; it is removed on success and kept, with its
# path printed, on a difference. Takes about 5 minutes on a 2-vCPU box.
set -euo pipefail
cd "$(dirname "$0")/.."

change=HEAD
if [ "${1:-}" = -change ] && [ $# -ge 2 ]; then
  change=$2
  shift 2
fi
if [ $# -ne 1 ]; then
  echo "usage: scripts/samebytes.sh [-change REV] PARENT" >&2
  exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$change^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/samebytes.XXXXXX")
echo "samebytes: parent $parent, change $change, work dir $work"
for side in parent change; do
  rev=$parent
  [ "$side" = change ] && rev=$change
  mkdir -p "$work/$side" "$work/out-$side"
  git archive "$rev" | tar -x -C "$work/$side"
  (cd "$work/$side" && go build -o "$work/ricasim-$side" ./cmd/ricasim)
done

run() { # side, output name, then ricasim arguments; stdout goes to name.out
  local side=$1 name=$2
  shift 2
  "$work/ricasim-$side" "$@" > "$work/out-$side/$name.out" 2> "$work/out-$side/$name.err" || {
    echo "samebytes: ricasim ($side) failed on $name; see $work/out-$side/$name.err" >&2
    exit 1
  }
}
both() { # output name, then ricasim arguments, where @ stands for the side's out dir
  local name=$1 side
  shift
  for side in parent change; do
    run "$side" "$name" "${@//@/$work/out-$side}"
  done
}

fail=0
same() { # label, then the files to compare, relative to each side's out dir
  local label=$1 f
  shift
  for f in "$@"; do
    if ! cmp -s "$work/out-parent/$f" "$work/out-change/$f"; then
      echo "DIFFERS: $label ($f)"
      fail=1
      return
    fi
  done
  echo "same:    $label"
}

for s in 1 2 3; do
  both "fig2a-$s" -figure 2a -trials 1 -duration 20s -speeds 0,36,72 -parallelism 1 -seed "$s"
  same "figure 2a, seed $s" "fig2a-$s.out"
done

for p in RICA LinkState; do
  both "paper-$p" -scenario paper-baseline -protocols "$p" -trials 1 -seed 1 \
    -checkpoint "@/paper-$p.ckpt" -checkpoint-every 70s
  same "paper-baseline × $p snapshot and stdout" "paper-$p.ckpt" "paper-$p.out"
  run parent "resume-$p" -resume "$work/out-change/paper-$p.ckpt"
  run change "resume-$p" -resume "$work/out-parent/paper-$p.ckpt"
  for side in parent change; do
    if cmp -s "$work/out-$side/resume-$p.out" "$work/out-$side/paper-$p.out"; then
      echo "same:    paper-baseline × $p, the $side binary resuming the other's snapshot"
    else
      echo "DIFFERS: paper-baseline × $p, the $side binary resuming the other's snapshot"
      fail=1
    fi
  done
done

scenarios=$("$work/ricasim-parent" -list-scenarios | awk 'NR > 1 { print $1 }')
for sc in $scenarios; do
  for p in RICA BGCA AODV ABR LinkState; do
    both "cell-$sc-$p" -scenario "$sc" -protocols "$p" -trials 1 -seed 1 -duration 3s \
      -checkpoint "@/cell-$sc-$p.ckpt" -checkpoint-every 1s
    same "$sc × $p snapshot and stdout at 3 s" "cell-$sc-$p.ckpt" "cell-$sc-$p.out"
  done
done

effort=(chan_class_hits chan_dist_misses chan_grid_rebuilds chan_annulus_checks)
pattern=$(IFS='|'; echo "\"(${effort[*]})\": ")
sum() { # counter, export: the counter summed over every object that carries it
  grep -Eo "\"$1\": [0-9]+" "$2" | awk '{ s += $2 } END { print s + 0 }'
}
export_same() { # label, export name
  local label=$1 name=$2 c a b
  for side in parent change; do
    grep -Ev "$pattern" "$work/out-$side/$name.json" > "$work/out-$side/$name.stripped"
  done
  same "$label export, effort counters stripped" "$name.stripped"
  for c in "${effort[@]}"; do
    a=$(sum "$c" "$work/out-parent/$name.json")
    b=$(sum "$c" "$work/out-change/$name.json")
    [ "$a" = "$b" ] || echo "         effort counter $c moved: $a -> $b"
  done
}
both metro -scenario metro-500 -protocols RICA -trials 1 -duration 10s -parallelism 1 \
  -seed 1 -format json -out @/metro.json
export_same metro-500 metro
both grid -scenario chain-10,grid-8x8,dense-urban,churn-storm,jammer-grid -trials 2 \
  -seed 1 -duration 20s -format json -out @/grid.json
export_same "grid-serve grid" grid

if [ "$fail" -ne 0 ]; then
  echo "samebytes: outputs differ; the runs are kept in $work" >&2
  exit 1
fi
rm -rf "$work"
echo "samebytes: every figure, snapshot, resume and export byte is equal, effort counters aside"
