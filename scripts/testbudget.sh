#!/usr/bin/env bash
# testbudget.sh — tier-1 under a time budget per package.
#
# Runs `go test -json ./...` (arguments go to go test, e.g. -count=1) and
# prints what a plain `go test ./...` prints: one ok/FAIL line per
# package as it finishes, then every failed test's own output in run
# order. Then it reads each package's elapsed time against
# scripts/test_budget.txt and fails, naming the package, when one took
# more than twice its budget or has no line there. Nothing else measures
# test time, so a law that quietly triples a package's wall shows in the
# change that did it instead of three changes later. The budgets are for
# a plain run: no -race, no -short.
#
# Budget file format: one "PACKAGE SECONDS" entry per line, the import
# path as go test prints it; blank lines and #-comments ignored. Needs jq.
set -uo pipefail
cd "$(dirname "$0")/.."

json=$(mktemp)
trap 'rm -f "$json"' EXIT

go test -json "$@" ./... | tee "$json" | jq --unbuffered -rj '
  select((.Action == "output" and .Test == null and .Output != "PASS\n")
         or .Action == "build-output") | .Output'
status=${PIPESTATUS[0]}

jq -rjs '
  [.[] | select(.Action == "fail" and .Test) | .Package + " " + .Test] as $failed
  | .[] | select(.Action == "output" and .Test and (.Package + " " + .Test | IN($failed[])))
  | .Output' "$json"

jq -r 'select(.Test == null and (.Action == "pass" or .Action == "fail"))
       | "\(.Package) \(.Elapsed // 0)"' "$json" |
  awk 'NR == FNR { if ($1 !~ /^#/ && NF >= 2) budget[$1] = $2; next }
       !($1 in budget) {
         printf "testbudget: FAIL — %s took %.1f s and has no line in scripts/test_budget.txt\n", $1, $2
         bad = 1; next
       }
       $2 > 2 * budget[$1] {
         printf "testbudget: FAIL — %s took %.1f s, more than twice its budget of %s s\n", $1, $2, budget[$1]
         bad = 1; next
       }
       { ok++ }
       END {
         if (bad) print "testbudget: if the growth is intended, raise scripts/test_budget.txt in the same change and say why"
         else printf "testbudget: %d packages within twice their budget\n", ok
         exit bad
       }' scripts/test_budget.txt -
over=$?

if [ "$status" -ne 0 ]; then
    exit "$status"
fi
exit "$over"
