#!/bin/sh
# Compare what the shipped configs give at a git revision and in the working tree.
#
# Usage: tools/compare_shipped.sh REV
#
# Exports the committed files of REV with `git archive` into a temporary
# directory, runs this tree's tools/run_shipped.sh on that copy and on the
# working tree, prints `diff -r` of the two result trees and removes the
# temporary directory.  Exits 0 when exit codes, stdout, stderr and every
# artifact byte agree, and non-zero on any difference.  Set
# OPENBLAS_NUM_THREADS as for run_shipped.sh; TMPDIR picks where the copy goes.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 REV" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir -p "$tmp/rev/tools"
git -C "$root" archive "$1" | tar -x -C "$tmp/rev"
cp "$root/tools/run_shipped.sh" "$tmp/rev/tools/run_shipped.sh"
sh "$tmp/rev/tools/run_shipped.sh" "$tmp/at-rev"
sh "$root/tools/run_shipped.sh" "$tmp/working-tree"
diff -r "$tmp/at-rev" "$tmp/working-tree"
