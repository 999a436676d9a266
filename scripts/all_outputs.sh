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
#   bound_<command>         each of the four subcommands on
#                           scripts/positivity_study.cfg with
#                           driver.domain_bound = 1e300 (the constants
#                           overflow: all four exit 2)
#   x0_<command>            positivity and tree-oracle on
#                           scripts/positivity_study.cfg with sde.x0 = 1e308
#                           (the forward states blow up: both exit 4)
#   drift_<command>         converge, positivity and tree-oracle on
#                           scripts/positivity_study.cfg with sde.x0 = 1e308
#                           and sde.b1 = 10 (the drift overflows: all three
#                           exit 4, no warning)
#   terminal_<command>      the same three with sde.sigma = 100 and
#                           terminal.coeffs = 0,0,0,0,1e300 (the terminal
#                           map overflows: converge's proxy explodes, exit
#                           4; the other two exit 0 with the explosions as
#                           data; no warning)
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

# with_key CFG NAME KEY VALUE [KEY VALUE ...]: a copy of CFG in the
# temporary directory, named NAME.cfg, with each KEY = VALUE in place of
# KEY's line (or added)
with_key() {
    local copy="$tmp/$2.cfg"
    cp "$1" "$copy"
    shift 2
    while [ $# -gt 0 ]; do
        { grep -v -e "^$1 *=" "$copy" || true; echo "$1 = $2"; } >"$copy.new"
        mv "$copy.new" "$copy"
        shift 2
    done
    echo "$copy"
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

cfg="$here/positivity_study.cfg"
copy="$(with_key "$cfg" bound driver.domain_bound 1e300)"
for command in converge positivity tree-oracle verify-taming; do
    record "bound_$command" python3 -m tamedbsde "$command" "$copy" --out "$out/bound_$command.csv"
done
copy="$(with_key "$cfg" x0 sde.x0 1e308)"
for command in positivity tree-oracle; do
    record "x0_$command" python3 -m tamedbsde "$command" "$copy" --out "$out/x0_$command.csv"
done
copy="$(with_key "$cfg" drift sde.x0 1e308 sde.b1 10)"
for command in converge positivity tree-oracle; do
    record "drift_$command" python3 -m tamedbsde "$command" "$copy" --out "$out/drift_$command.csv"
done
copy="$(with_key "$cfg" terminal sde.sigma 100 terminal.coeffs 0,0,0,0,1e300)"
for command in converge positivity tree-oracle; do
    record "terminal_$command" python3 -m tamedbsde "$command" "$copy" --out "$out/terminal_$command.csv"
done

echo "done; outputs in $out"
