#!/usr/bin/env bash
# mutate.sh — the mutation ledger: every law shown failing once stays
# shown failing.
#
#   scripts/mutate.sh [PATCH...]    (default: every testdata/mutations/*.patch)
#
# Each patch in testdata/mutations is a known-wrong program: plain `git
# diff` output after a header of "Key: value" lines naming the package
# to test, the -run pattern, an expected substring of the failure and,
# optionally, extra `go test` flags (such as -race):
#
#   Package: ./internal/world
#   Run: TestLiveViewDuringRun
#   Expect: after RunTo the hub reads
#   Flags: -race
#
# For each patch the script copies the working tree (tracked and
# untracked files, not ignored ones) to a temp dir, applies the patch
# there and runs `go test -count=1 [Flags] -run '^(Run)$' Package`. The
# mutant is killed when that run fails a test and its output holds the
# expected substring. A patch that no longer applies, a mutant that does
# not build, a test that passes (or skips) and a failure without the
# substring each fail the script, which names them. Nothing in this
# checkout is changed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
  set -- testdata/mutations/*.patch
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/mutate.XXXXXX")
trap 'rm -rf "$work"' EXIT

header() { sed -n "s/^$1: //p;/^diff --git /q" "$2" | head -1; }

killed=0
failed=()
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  pkg=$(header Package "$patch")
  run=$(header Run "$patch")
  expect=$(header Expect "$patch")
  flags=$(header Flags "$patch")
  if [ -z "$pkg" ] || [ -z "$run" ] || [ -z "$expect" ]; then
    echo "BAD HEADER  $name: needs Package, Run and Expect lines"
    failed+=("$name")
    continue
  fi

  tree="$work/$name"
  mkdir -p "$tree"
  git ls-files -z -co --exclude-standard | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$tree"
  abs=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
  if ! (cd "$tree" && git apply "$abs") 2> "$work/$name.apply"; then
    echo "STALE       $name: the patch no longer applies; re-take it against the current tree"
    sed 's/^/    /' "$work/$name.apply"
    failed+=("$name")
    continue
  fi

  start=$(date +%s)
  # shellcheck disable=SC2086 # Flags is a word list
  if (cd "$tree" && go test -count=1 $flags -run "^($run)\$" "$pkg") > "$work/$name.out" 2>&1; then
    verdict="SURVIVED    $name: $run passed on the mutant"
  elif grep -qE '\[(build|setup) failed\]|^# ' "$work/$name.out"; then
    verdict="BUILD ERROR $name: the mutant does not compile, which proves nothing"
  elif ! grep -q -- '--- FAIL: ' "$work/$name.out"; then
    verdict="NO FAILURE  $name: go test failed without failing a test"
  elif ! grep -qF -- "$expect" "$work/$name.out"; then
    verdict="WRONG FAIL  $name: $run failed without \"$expect\""
  else
    echo "killed      $name: $run failed as expected ($(($(date +%s) - start)) s)"
    killed=$((killed + 1))
    rm -rf "$tree"
    continue
  fi
  echo "$verdict"
  tail -20 "$work/$name.out" | sed 's/^/    /'
  failed+=("$name")
  rm -rf "$tree"
done

echo "mutate: $killed of $# mutants killed"
if [ ${#failed[@]} -gt 0 ]; then
  echo "mutate: not killed: ${failed[*]}" >&2
  exit 1
fi
