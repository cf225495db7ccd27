#!/usr/bin/env bash
# bench.sh — run the repository's performance benchmarks with -benchmem and
# emit a fixed-schema JSON record, so BENCH_<n>.json files accumulate a
# comparable perf trajectory across PRs.
#
# Usage:
#   scripts/bench.sh [-bench REGEX] [-benchtime SPEC] [-count N] [-label TEXT] [-out FILE]
#                    [-cpuprofile FILE]
#   scripts/bench.sh -diff BASELINE.json POST.json
#
# Defaults run the figure-scale suite plus the throughput benchmark a few
# times and print the JSON to stdout. The schema per benchmark:
#
#   {"name": ..., "ns_per_op": ..., "bytes_per_op": ..., "allocs_per_op": ...,
#    "events_per_sec": ...}          # events_per_sec only where reported
#
# wrapped as:
#
#   {"label": ..., "go": ..., "benchmarks": [...], "obs": {...}}
#
# The "obs" object is the observability counter snapshot of a fixed
# reference run (chain-10, 10 s, seed 1 — deterministic per toolchain),
# so BENCH_<n>.json also tracks the event/cache/drain counter profile
# across PRs, not just timings.
#
# Numbers are the per-benchmark MINIMUM across -count repetitions — the
# least-noise estimate on a shared machine.
#
# -diff compares two such records (cmd/benchdiff) and prints the delta
# summary BENCH_<n>.json files embed, so perf PRs stop hand-computing
# ratios. -cpuprofile additionally runs ONE extra repetition of the
# root-package benchmarks with the CPU profiler on, writing FILE (and
# FILE.test, the binary to feed `go tool pprof`), so the next perf PR
# starts from a captured profile instead of guesswork.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH='BenchmarkSimulationThroughput|BenchmarkInstrumentedThroughput|BenchmarkKernelScheduleAndRun|BenchmarkFigure2a'
BENCHTIME=5x
COUNT=3
LABEL=""
OUT=""
CPUPROFILE=""

while [ $# -gt 0 ]; do
    case "$1" in
        -bench)      BENCH="$2"; shift 2 ;;
        -benchtime)  BENCHTIME="$2"; shift 2 ;;
        -count)      COUNT="$2"; shift 2 ;;
        -label)      LABEL="$2"; shift 2 ;;
        -out)        OUT="$2"; shift 2 ;;
        -cpuprofile) CPUPROFILE="$2"; shift 2 ;;
        -diff)
            [ $# -eq 3 ] || { echo "bench.sh: -diff needs BASELINE.json POST.json" >&2; exit 2; }
            exec go run ./cmd/benchdiff "$2" "$3"
            ;;
        *) echo "bench.sh: unknown flag $1" >&2; exit 2 ;;
    esac
done

RAW=$(go test -run 'ZZnone' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./... 2>/dev/null | grep -E '^Benchmark')

if [ -n "$CPUPROFILE" ]; then
    # Profiling pass: root package only (go test writes one profile per
    # package, and the figure/throughput benchmarks live at the root).
    go test -run 'ZZnone' -bench "$BENCH" -benchtime "$BENCHTIME" -count 1 \
        -cpuprofile "$CPUPROFILE" -o "$CPUPROFILE.test" . >/dev/null 2>&1
    echo "wrote $CPUPROFILE (binary: $CPUPROFILE.test)" >&2
fi

JSON=$(printf '%s\n' "$RAW" | awk -v label="$LABEL" -v goversion="$(go env GOVERSION)" '
{
    # Strip the -N GOMAXPROCS suffix from the name.
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; evps = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")      ns = $i
        if ($(i+1) == "B/op")       bytes = $i
        if ($(i+1) == "allocs/op")  allocs = $i
        if ($(i+1) == "events/sec") evps = $i
    }
    if (ns == "") next
    if (!(name in min_ns)) {
        order[++n] = name
        min_ns[name] = ns; min_bytes[name] = bytes; min_allocs[name] = allocs
    } else if (ns + 0 < min_ns[name] + 0) {
        min_ns[name] = ns; min_bytes[name] = bytes; min_allocs[name] = allocs
    }
    # events/sec is a rate: keep the MAX (best) observation.
    if (evps != "" && (!(name in max_ev) || evps + 0 > max_ev[name] + 0)) max_ev[name] = evps
}
END {
    printf "{\"label\": \"%s\", \"go\": \"%s\", \"benchmarks\": [", label, goversion
    first = 1
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (!first) printf ", "
        first = 0
        printf "{\"name\": \"%s\", \"ns_per_op\": %s", name, min_ns[name]
        if (min_bytes[name]  != "") printf ", \"bytes_per_op\": %s", min_bytes[name]
        if (min_allocs[name] != "") printf ", \"allocs_per_op\": %s", min_allocs[name]
        if (name in max_ev)         printf ", \"events_per_sec\": %s", max_ev[name]
        printf "}"
    }
    print "]}"
}')

# Counter snapshot of the fixed reference run, folded into the record.
# The snapshot is per-cell deterministic; the process-wide pool stats it
# carries (gets/releases/high-water) vary with the run, so strip that
# object.
OBS_TMP=$(mktemp)
trap 'rm -f "$OBS_TMP"' EXIT
go run ./cmd/ricasim -scenario chain-10 -protocols RICA -trials 1 -duration 10s \
    -obs "$OBS_TMP" >/dev/null 2>&1
OBS=$(awk '
    /"pool": \{/ { inpool = 1; next }
    inpool { if (/\}/) inpool = 0; next }
    { lines[++n] = $0 }
    END {
        sub(/,[[:space:]]*$/, "", lines[n-1]) # comma left dangling by the cut
        for (i = 1; i <= n; i++) print lines[i]
    }' "$OBS_TMP")
JSON="${JSON%\}}, \"obs\": ${OBS}}"

if [ -n "$OUT" ]; then
    printf '%s\n' "$JSON" > "$OUT"
    echo "wrote $OUT" >&2
else
    printf '%s\n' "$JSON"
fi
