#!/usr/bin/env bash
# checktests.sh — fail when CI or the docs name a test that does not exist.
#
# `go test -run PATTERN` exits 0 with "no tests to run" when PATTERN
# matches nothing, so a renamed test silently drops out of the CI steps
# that select it by name, and a doc that promises "held by TestX" keeps
# promising it. This collects every Test[A-Z]… name in the -run patterns
# of .github/workflows/ci.yml, anywhere in docs/TESTING.md and
# docs/OPERATIONS.md, and in the "Run:" headers of the mutation ledger
# (testdata/mutations/*.patch), and requires each to select at least one
# top-level test of `go test -list '.*' ./...` the way -run would: as the whole
# name or a prefix of it (CI's `TestCheckpointResume` means the three
# tests that start so). Every Example[A-Z]… name in README.md and
# docs/*.md must select a testable example the same way, so a walkthrough
# the docs send a reader to cannot be renamed away under them. Run from
# anywhere; CI's docs job runs it beside checklinks.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

have=$(go test -list '.*' ./... | grep -E '^(Test|Example)' | sort -u)
if [ -z "$have" ]; then
  echo "checktests: go test -list found no tests" >&2
  exit 2
fi

named=$(
  {
    {
      grep -e '-run' .github/workflows/ci.yml
      cat docs/TESTING.md docs/OPERATIONS.md
      sed -n 's/^Run: //p' testdata/mutations/*.patch
    } | grep -o 'Test[A-Z][A-Za-z0-9_]*'
    cat README.md docs/*.md | grep -o 'Example[A-Z][A-Za-z0-9_]*'
  } | sort -u
)

fail=0
for name in $named; do
  if ! grep -q "^$name" <<< "$have"; then
    echo "MISSING: $name is named in ci.yml, the docs or the mutation ledger, and no test or example starts with it"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "checktests: named tests are missing" >&2
  exit 1
fi
echo "all $(wc -w <<< "$named") named tests exist"
