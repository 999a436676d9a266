#!/usr/bin/env bash
# Compare every output the studies make at revision REV with this
# checkout's:
#
#   scripts/compare_outputs.sh REV
#
# REV's own scripts/all_outputs.sh runs in a temporary `git worktree` of
# REV, which is removed on exit; then this checkout's runs here.  The two
# output directories are compared with `diff -r -x '*.timings.csv'` (the
# timing sidecars hold measured wall time), a/ being REV's and b/ this
# checkout's.  Exit 0: the outputs are identical; exit 1: they differ,
# and the diff is printed.  Any other failure exits with its own code.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
rev="${1:?usage: scripts/compare_outputs.sh REV}"
tmp="$(mktemp -d)"
cleanup() {
    git -C "$root" worktree remove --force "$tmp/rev" 2>/dev/null || true
    rm -rf "$tmp"
    git -C "$root" worktree prune
}
trap cleanup EXIT

git -C "$root" worktree add --detach --quiet "$tmp/rev" "$rev"
"$tmp/rev/scripts/all_outputs.sh" "$tmp/a" >/dev/null
"$here/all_outputs.sh" "$tmp/b" >/dev/null

cd "$tmp"
rc=0
diff -r -x '*.timings.csv' a b || rc=$?
if [ "$rc" -eq 0 ]; then
    echo "outputs of $rev and this checkout are identical"
fi
exit "$rc"
