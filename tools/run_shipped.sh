#!/bin/sh
# Run the five CLI commands on every shipped config and keep what each run left:
# OUT/<config>/<command>/{exit_code,stdout,stderr,artifacts/}.
#
# Usage: tools/run_shipped.sh OUT    (OUT must not exist yet)
#
# Two trees made from two checkouts, or from one checkout under two
# OPENBLAS_NUM_THREADS settings, are compared with `diff -r`: the package
# promises the same exit codes, output and artifact bytes in every case.
# The runs start inside OUT with a relative --out, so stdout does not carry
# the location of OUT.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUT" >&2; exit 2; }
[ -e "$1" ] && { echo "error: $1 exists" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
for cfg in "$root"/configs/*.cfg; do
    name=$(basename "$cfg" .cfg)
    for cmd in check-hypotheses simulate moments converge uniqueness; do
        run="$name/$cmd"
        mkdir -p "$run"
        code=0
        PYTHONPATH="$root/src" python3 -m fracsplap.cli "$cmd" --config "$cfg" --out "$run/artifacts" \
            >"$run/stdout" 2>"$run/stderr" || code=$?
        echo "$code" >"$run/exit_code"
    done
done
