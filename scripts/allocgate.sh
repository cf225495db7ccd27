#!/usr/bin/env bash
# allocgate.sh — the allocation-regression gate for CI.
#
# Runs every benchmark listed in scripts/alloc_budget.txt with -benchmem
# and fails if its allocs/op exceeds the committed budget. Allocation
# counts are nearly deterministic (unlike ns/op, which CI boxes are far
# too noisy to assert on), so this catches "someone reintroduced a
# per-event allocation" without flaky timing thresholds.
#
# Budget file format: one "BenchmarkName BUDGET [BENCHTIME]" entry per
# line; blank lines and #-comments ignored. BENCHTIME (default 2x) is for
# benchmarks whose op is a single event: allocs/op is an integer average
# over every allocation in the process, so over two ops a couple of the
# runtime's own stray allocations read as 1 — a zero budget needs enough
# ops to average them out.
set -euo pipefail
cd "$(dirname "$0")/.."

FAILED=0
while read -r NAME BUDGET BENCHTIME; do
    case "$NAME" in ''|'#'*) continue ;; esac
    BENCHTIME=${BENCHTIME:-2x}
    if ! [[ "$BUDGET" =~ ^[0-9]+$ ]]; then
        echo "allocgate: bad budget for $NAME in scripts/alloc_budget.txt: '$BUDGET'" >&2
        exit 2
    fi

    OUT=$(go test -run 'ZZnone' -bench "^${NAME}\$" -benchmem -benchtime "$BENCHTIME" ./... 2>&1 | grep -E "^${NAME}\b" || true)
    if [ -z "$OUT" ]; then
        echo "allocgate: benchmark $NAME produced no output" >&2
        exit 2
    fi
    echo "$OUT"

    ALLOCS=$(echo "$OUT" | awk '{for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i}' | head -1)
    if ! [[ "$ALLOCS" =~ ^[0-9]+$ ]]; then
        echo "allocgate: could not parse allocs/op for $NAME" >&2
        exit 2
    fi

    if [ "$ALLOCS" -gt "$BUDGET" ]; then
        echo "allocgate: FAIL — $NAME: $ALLOCS allocs/op exceeds the budget of $BUDGET" >&2
        echo "allocgate: if the increase is intentional, raise scripts/alloc_budget.txt in the same PR and say why" >&2
        FAILED=1
    else
        echo "allocgate: OK — $NAME: $ALLOCS allocs/op within budget $BUDGET"
    fi
done < scripts/alloc_budget.txt

exit "$FAILED"
