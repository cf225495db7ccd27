#!/usr/bin/env bash
# checklinks.sh — fail on broken relative links in the repo's markdown.
#
# Scans README.md, DESIGN.md and docs/*.md for
# markdown links, skips absolute URLs and pure in-page anchors, and
# verifies every relative target exists on disk (resolved against the
# linking file's directory). Run from the repository root; CI's docs job
# runs it on every push.
set -euo pipefail

cd "$(dirname "$0")/.."

files=(README.md DESIGN.md)
for f in docs/*.md; do
  [ -e "$f" ] && files+=("$f")
done

fail=0
for f in "${files[@]}"; do
  dir=$(dirname "$f")
  # Extract every markdown link target: [text](target)
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"      # drop in-page anchors
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN: $f -> $target"
      fail=1
    fi
  done < <(grep -o '\](\([^)]*\))' "$f" | sed 's/^](//; s/)$//')
done

if [ "$fail" -ne 0 ]; then
  echo "broken relative links found" >&2
  exit 1
fi
echo "all relative links resolve"
