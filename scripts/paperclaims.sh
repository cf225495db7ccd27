#!/usr/bin/env bash
# paperclaims.sh — the paper's claims as a law over seeds: classifies
# each comparison TestPaperShapes makes (figures 2–5) over K base seeds.
#
#   scripts/paperclaims.sh [-k K] [-trials T] [-duration D] [-bin RICASIM]
#
# Defaults: K = 8 base seeds, 4 trials × 120 s. For k = 1..K it runs
#
#   ricasim -figure all -format csv -speeds 0,36,72 -trials T -duration D -seed 1000·k
#
# Trial t of a figure point runs seed s+t, so base seeds 1000 apart never
# share a world. Every protocol of one base seed runs the same worlds,
# so each claim is a paired difference d_k taken inside base seed k,
# oriented so that d > 0 is what the paper (and TestPaperShapes) says.
# A claim with a margin (the test's "falls by at least 15 points", "≈ 2×",
# "within 5 %") carries the margin in d. For each claim the script prints
# the mean of d over the K seeds ± the 95 % confidence half-width
# (Student t, K−1 degrees of freedom), the wins of K (d > 0; d ≥ 0 for
# a "≥" claim), and a verdict:
#
#   reproduced      the CI lies on the claimed side of 0
#   within noise    the CI straddles 0
#   not reproduced  the CI lies on the wrong side of 0
#
# The table is markdown; docs/PAPERCLAIMS.md holds the one the defaults
# make. Without -bin the script builds ricasim from this checkout into a
# temp dir. Figure 6 runs as part of "all" but is not classified.
set -euo pipefail
cd "$(dirname "$0")/.."

K=8
TRIALS=4
DURATION=120s
BIN=
while [ $# -gt 0 ]; do
  case "$1" in
    -k) K=$2; shift 2 ;;
    -trials) TRIALS=$2; shift 2 ;;
    -duration) DURATION=$2; shift 2 ;;
    -bin) BIN=$2; shift 2 ;;
    *) echo "usage: $0 [-k K] [-trials T] [-duration D] [-bin RICASIM]" >&2; exit 2 ;;
  esac
done
if [ "$K" -lt 2 ]; then
  echo "paperclaims: K must be at least 2 for a confidence interval" >&2
  exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/paperclaims.XXXXXX")
trap 'rm -rf "$work"' EXIT
if [ -z "$BIN" ]; then
  go build -o "$work/ricasim" ./cmd/ricasim
  BIN=$work/ricasim
fi

start=$(date +%s)
files=()
for k in $(seq 1 "$K"); do
  s=$((1000 * k))
  "$BIN" -figure all -format csv -speeds 0,36,72 -trials "$TRIALS" -duration "$DURATION" -seed "$s" \
    > "$work/seed$s.csv" 2> "$work/seed$s.err" || { cat "$work/seed$s.err" >&2; exit 1; }
  files+=("$work/seed$s.csv")
  echo "paperclaims: base seed $s done ($(($(date +%s) - start)) s)" >&2
done
wall=$(($(date +%s) - start))

echo "K = $K base seeds (1000, 2000, …, $((1000 * K))), $TRIALS trials × $DURATION each, speeds 0/36/72 km/h, 10 packets/s; $wall s wall"
echo
awk -v K="$K" '
# The CSV blocks of -figure all, in order: 2a 2b 3a 3b 4a 4b 5 6a 6b.
# Blocks 0, 2 and 4 are delay, delivery and overhead at 10 packets/s by
# speed; block 6 is route quality at 72 km/h by protocol.
FNR == 1 { k++; blk = 0; hdr = 0 }
/^$/ { if (hdr) { blk++; hdr = 0 } ; next }
!hdr { n = split($0, h, ","); hdr = 1; next }
{
  split($0, f, ",")
  if (blk == 0) pre = "delay"; else if (blk == 2) pre = "deliv"; else if (blk == 4) pre = "ovh"; else if (blk == 6) pre = "q"; else next
  for (c = 2; c <= n; c++) {
    key = (pre == "q") ? pre "." f[1] "." h[c] : pre "." h[c] "." f[1]
    v[k, key] = f[c] + 0
    seen[k, key] = 1
  }
}
function V(k, key) {
  if (!((k, key) in seen)) { printf "paperclaims: seed %d has no %s\n", k, key > "/dev/stderr"; bad = 1; return 0 }
  return v[k, key]
}
function abs(x) { return x < 0 ? -x : x }
# d(c, k): claim c in base seed k, positive when the claim holds.
function d(c, k) {
  if (c == 1) return V(k, "delay.AODV.0") - V(k, "delay.RICA.0")
  if (c == 2) return V(k, "delay.AODV.36") - V(k, "delay.RICA.36")
  if (c == 3) return V(k, "delay.AODV.72") - V(k, "delay.RICA.72")
  if (c == 4) return V(k, "delay.AODV.0") - V(k, "delay.BGCA.0")
  if (c == 5) return V(k, "delay.AODV.36") - V(k, "delay.BGCA.36")
  if (c == 6) return V(k, "delay.AODV.72") - V(k, "delay.BGCA.72")
  if (c == 7) return V(k, "delay.AODV.0") - V(k, "delay.LinkState.0")
  if (c == 8) return V(k, "delay.LinkState.72") - V(k, "delay.LinkState.0")
  if (c == 9) return V(k, "delay.ABR.72") - V(k, "delay.AODV.72")
  if (c == 10) return V(k, "delay.ABR.72") - 0.95 * V(k, "delay.AODV.72")
  if (c == 11) return V(k, "deliv.RICA.72") - V(k, "deliv.BGCA.72")
  if (c == 12) return V(k, "deliv.RICA.72") - V(k, "deliv.AODV.72")
  if (c == 13) return V(k, "deliv.RICA.72") - V(k, "deliv.ABR.72")
  if (c == 14) return V(k, "deliv.RICA.72") - V(k, "deliv.LinkState.72")
  if (c == 15) return V(k, "deliv.AODV.0") - V(k, "deliv.AODV.72") - 15
  if (c == 16) return V(k, "deliv.LinkState.0") - V(k, "deliv.LinkState.72") - 15
  if (c == 17) return V(k, "deliv.RICA.72") - V(k, "deliv.RICA.0") + 15
  if (c == 18) return 1.05 * V(k, "ovh.AODV.72") - V(k, "ovh.ABR.72")
  if (c == 19) return V(k, "ovh.BGCA.72") - V(k, "ovh.AODV.72")
  if (c == 20) return V(k, "ovh.RICA.72") - V(k, "ovh.BGCA.72")
  if (c == 21) return V(k, "ovh.RICA.72") - 2 * V(k, "ovh.AODV.72")
  if (c == 22) return V(k, "ovh.LinkState.72") - 2 * V(k, "ovh.RICA.72")
  if (c == 23) return V(k, "q.RICA.link_throughput_kbps") - V(k, "q.AODV.link_throughput_kbps")
  if (c == 24) return V(k, "q.BGCA.link_throughput_kbps") - V(k, "q.AODV.link_throughput_kbps")
  if (c == 25) return V(k, "q.LinkState.link_throughput_kbps") - V(k, "q.AODV.link_throughput_kbps")
  if (c == 26) return 15 - abs(V(k, "q.ABR.link_throughput_kbps") - V(k, "q.AODV.link_throughput_kbps"))
  if (c == 27) return V(k, "q.ABR.csi_hops") - V(k, "q.AODV.csi_hops")
  if (c == 28) return V(k, "q.LinkState.max_hops") - 15
}
# Student t at 97.5 % for df = 1..30; 1.96 beyond.
function tcrit(df) {
  split("12.706 4.303 3.182 2.776 2.571 2.447 2.365 2.306 2.262 2.228 2.201 2.179 2.160 2.145 2.131 2.120 2.110 2.101 2.093 2.086 2.080 2.074 2.069 2.064 2.060 2.056 2.052 2.048 2.045 2.042", t, " ")
  return df <= 30 ? t[df] + 0 : 1.96
}
END {
  if (k != K) { printf "paperclaims: read %d seeds, want %d\n", k, K > "/dev/stderr"; exit 1 }
  L[1] = "fig2 | RICA delay below AODV at 0 km/h | AODV − RICA (ms)"
  L[2] = "fig2 | RICA delay below AODV at 36 km/h | AODV − RICA (ms)"
  L[3] = "fig2 | RICA delay below AODV at 72 km/h | AODV − RICA (ms)"
  L[4] = "fig2 | BGCA delay below AODV at 0 km/h | AODV − BGCA (ms)"
  L[5] = "fig2 | BGCA delay below AODV at 36 km/h | AODV − BGCA (ms)"
  L[6] = "fig2 | BGCA delay below AODV at 72 km/h | AODV − BGCA (ms)"
  L[7] = "fig2 | static link-state delay below AODV | AODV − LS at 0 (ms)"
  L[8] = "fig2 | link-state delay rises with mobility | LS at 72 − LS at 0 (ms)"
  L[9] = "fig2 | AODV overtakes ABR at 72 km/h | ABR − AODV (ms)"
  L[10] = "fig2 | ABR not clearly below AODV at 72 km/h (the test: > 0.95×) | ABR − 0.95·AODV (ms)"
  L[11] = "fig3 | RICA delivery ≥ BGCA at 72 km/h | RICA − BGCA (pts)"
  L[12] = "fig3 | RICA delivery ≥ AODV at 72 km/h | RICA − AODV (pts)"
  L[13] = "fig3 | RICA delivery ≥ ABR at 72 km/h | RICA − ABR (pts)"
  L[14] = "fig3 | RICA delivery ≥ link state at 72 km/h | RICA − LS (pts)"
  L[15] = "fig3 | AODV delivery falls ≥ 15 pts, 0 → 72 km/h | fall − 15 (pts)"
  L[16] = "fig3 | link-state delivery falls ≥ 15 pts, 0 → 72 km/h | fall − 15 (pts)"
  L[17] = "fig3 | RICA delivery falls < 15 pts, 0 → 72 km/h | 15 − fall (pts)"
  L[18] = "fig4 | ABR overhead ≤ 1.05 × AODV at 72 km/h | 1.05·AODV − ABR (kbps)"
  L[19] = "fig4 | BGCA overhead above AODV at 72 km/h | BGCA − AODV (kbps)"
  L[20] = "fig4 | BGCA overhead below RICA at 72 km/h | RICA − BGCA (kbps)"
  L[21] = "fig4 | RICA overhead ≥ 2 × AODV at 72 km/h | RICA − 2·AODV (kbps)"
  L[22] = "fig4 | link-state overhead ≥ 2 × RICA at 72 km/h | LS − 2·RICA (kbps)"
  L[23] = "fig5a | RICA link throughput above AODV | RICA − AODV (kbps)"
  L[24] = "fig5a | BGCA link throughput above AODV | BGCA − AODV (kbps)"
  L[25] = "fig5a | link-state link throughput above AODV | LS − AODV (kbps)"
  L[26] = "fig5a | ABR and AODV link throughput within 15 kbps | 15 − abs(ABR − AODV) (kbps)"
  L[27] = "fig5b | ABR routes longer than AODV (CSI hops) | ABR − AODV (hops)"
  L[28] = "fig5b | link-state loops: max hops ≥ 15 | LS max − 15 (hops)"
  ge[11] = ge[12] = ge[13] = ge[14] = ge[15] = ge[16] = ge[18] = ge[21] = ge[22] = ge[28] = 1
  NC = 28
  print "| # | fig | claim | paired difference d | mean ± CI95 | wins of " K " | verdict |"
  print "|---|---|---|---|---|---|---|"
  tc = tcrit(K - 1)
  for (c = 1; c <= NC; c++) {
    s = 0; ss = 0; w = 0
    for (i = 1; i <= K; i++) {
      x = d(c, i); s += x; ss += x * x
      if (x > 0 || (ge[c] && x == 0)) w++
    }
    m = s / K
    var = (ss - K * m * m) / (K - 1); if (var < 0) var = 0
    half = tc * sqrt(var / K)
    lo = m - half; hi = m + half
    if (lo > 0 || (ge[c] && lo >= 0)) verdict = "reproduced"
    else if (hi < 0) verdict = "**not reproduced**"
    else verdict = "within noise"
    printf "| %d | %s | %.2f ± %.2f | %d | %s |\n", c, L[c], m, half, w, verdict
  }
  if (bad) exit 1
}' "${files[@]}"
