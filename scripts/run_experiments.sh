#!/usr/bin/env bash
# Run every experiment at desk scale.
#
#   scripts/run_experiments.sh [OUTDIR]
#
# CSVs land in OUTDIR (created if missing; default scripts/out/), so the
# outputs of two checkouts can be compared with `diff -r`.
# Uses the `tamedbsde` console script when it is on PATH, otherwise
# `python3 -m tamedbsde` on this checkout's sources.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${1:-$here/out}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
cd "$here"

if command -v tamedbsde >/dev/null 2>&1; then
    tamedbsde() { command tamedbsde "$@"; }
else
    export PYTHONPATH="$(cd .. && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
    tamedbsde() { python3 -m tamedbsde "$@"; }
fi

tamedbsde converge convergence_study.cfg --out "$out/convergence_study.csv"
tamedbsde positivity positivity_study.cfg --out "$out/positivity_regression.csv"
tamedbsde tree-oracle positivity_study.cfg --out "$out/positivity_tree.csv"
tamedbsde verify-taming taming_check.cfg --out "$out/taming_check.csv"
tamedbsde converge explosion_demo.cfg --out "$out/explosion_demo.csv"

echo "done; reports in $out"
