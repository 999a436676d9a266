#!/usr/bin/env bash
# Write every output the studies make on the shipped configurations, so
# that two checkouts can be compared with
#
#   scripts/all_outputs.sh OUTDIR
#   diff -r -x '*.timings.csv' a/ b/
#
# Into OUTDIR (created if missing) go:
#   run_experiments/        scripts/run_experiments.sh's CSVs
#   tree_ladder_N<n>        tree-oracle on perfbench/configs/tree_ladder.cfg,
#                           one copy per N of its ladder
#   explosion_tree_N<n>     tree-oracle and positivity on
#   explosion_paths_N<n>    scripts/explosion_demo.cfg, one copy per N (on the
#                           tree its untamed row explodes inside the block of
#                           the one base driver)
#   lsmc_converge, lsmc_wide  converge and positivity on perfbench's configs,
#                           --seed 7
# Each command's stdout, stderr and exit code go to <name>.stdout, with
# OUTDIR written as the token OUTDIR.  The single-grid copies are made in a
# temporary directory; perfbench's configs are read in place.  Every
# command runs `python3 -m tamedbsde` on this checkout's sources (so does
# run_experiments.sh when no `tamedbsde` is on PATH).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${1:?usage: scripts/all_outputs.sh OUTDIR}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

# record NAME CMD...: run CMD, keeping its stdout, stderr and exit code
record() {
    local name="$1" rc=0
    shift
    "$@" >"$tmp/stdout" 2>"$tmp/stderr" || rc=$?
    { cat "$tmp/stdout"; echo "--- stderr"; cat "$tmp/stderr"; echo "--- exit $rc"; } \
        | sed -e "s|$out|OUTDIR|g" -e "s|$tmp|TMPDIR|g" >"$out/$name.stdout"
}

# grids CFG: the N ladder of CFG, space-separated
grids() {
    sed -n -e 's/^grids *= *\([0-9, ]*\).*/\1/p' "$1" | tr -d ' ' | tr , ' '
}

# single_grid CFG N: a copy of CFG in the temporary directory with grids = N
single_grid() {
    local copy="$tmp/$(basename "$1" .cfg)_N$2.cfg"
    sed -e "s/^grids *=.*/grids = $2/" "$1" >"$copy"
    echo "$copy"
}

record run_experiments "$here/run_experiments.sh" "$out/run_experiments"

cfg="$root/perfbench/configs/tree_ladder.cfg"
for n in $(grids "$cfg"); do
    record "tree_ladder_N$n" python3 -m tamedbsde tree-oracle "$(single_grid "$cfg" "$n")" \
        --out "$out/tree_ladder_N$n.csv"
done

cfg="$here/explosion_demo.cfg"
for n in $(grids "$cfg"); do
    copy="$(single_grid "$cfg" "$n")"
    record "explosion_tree_N$n" python3 -m tamedbsde tree-oracle "$copy" \
        --out "$out/explosion_tree_N$n.csv"
    record "explosion_paths_N$n" python3 -m tamedbsde positivity "$copy" \
        --out "$out/explosion_paths_N$n.csv"
done

record lsmc_converge python3 -m tamedbsde converge "$root/perfbench/configs/lsmc_converge.cfg" \
    --seed 7 --out "$out/lsmc_converge.csv"
record lsmc_wide python3 -m tamedbsde positivity "$root/perfbench/configs/lsmc_wide.cfg" \
    --seed 7 --out "$out/lsmc_wide.csv"

echo "done; outputs in $out"
