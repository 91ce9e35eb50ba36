#!/usr/bin/env bash
# Compare every shipped output of commit REV with the working tree's.
#
# Usage: scripts/compare_shipped.sh REV
#
# REV is exported with `git archive` into a temporary directory, and
# scripts/shipped_outputs.sh runs once in that export and once in this
# checkout (uncommitted changes included), both under the same
# PYTHONHASHSEED and OPENBLAS_NUM_THREADS: the caller's, or 1 and 1.
# Prints each file that differs with the number of its lines that
# differ, or that is present on one side only; exits 0 when nothing
# differs and 1 when something does.  REV must have the script.
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
if [ ! -x "$tmp/rev/scripts/shipped_outputs.sh" ]; then
  echo "error: $1 has no scripts/shipped_outputs.sh" >&2
  exit 2
fi

export PYTHONHASHSEED="${PYTHONHASHSEED:-1}"
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
echo "# $1 ($rev) against the working tree," \
  "PYTHONHASHSEED=$PYTHONHASHSEED OPENBLAS_NUM_THREADS=$OPENBLAS_NUM_THREADS"
"$tmp/rev/scripts/shipped_outputs.sh" "$tmp/out-rev" > /dev/null
"$root/scripts/shipped_outputs.sh" "$tmp/out-tree" > /dev/null

status=0
files="$( (cd "$tmp/out-rev" && find . -type f)
          (cd "$tmp/out-tree" && find . -type f) )"
for f in $(printf '%s\n' "$files" | sort -u); do
  old="$tmp/out-rev/$f" new="$tmp/out-tree/$f"
  if [ ! -e "$new" ]; then
    echo "${f#./}: only in $1"
  elif [ ! -e "$old" ]; then
    echo "${f#./}: only in the working tree"
  elif ! cmp -s "$old" "$new"; then
    # lines of the working tree's file in the hunks that differ
    lines="$(diff "$old" "$new" | grep -c '^>' || true)"
    echo "${f#./}: $lines lines differ"
  else
    continue
  fi
  status=1
done
[ "$status" -eq 0 ] && echo "no file differs"
exit "$status"
