#!/usr/bin/env python3
"""Paired study timing of revision REV against this checkout:

    scripts/ab_time.py REV WORKLOAD [ROUNDS]

REV is checked out in a temporary `git worktree`, removed on exit.  One
persistent worker process per checkout (REV's and this one) imports that
checkout's own src/ and perfbench/workloads.py, prepares the workload's
config as perfbench/run.py times it (one scheme thread, one BLAS thread,
seed 7) and runs three untimed studies to warm up.  Each of ROUNDS rounds
(default 20) then times one complete study, CSV emission included, on
each side, alternating which side goes first.  The two workers take turns,
never running beside each other.

Printed: each side's median and quartiles of its study times, the median
of the per-round ratios (this checkout's time over REV's) and the rounds
this checkout won.  Nothing under perfbench/ is written to; each worker's
CSVs go to a temporary directory, removed on exit.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
WARMUP = 3


def worker(checkout: str, name: str) -> None:
    """Serve timed studies of workload `name` from `checkout`: a line
    "ready" after the warm-up, then the seconds of one study for every
    line read from standard input, until it closes."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    import time

    import tamedbsde
    from workloads import WORKLOADS

    if not os.path.abspath(tamedbsde.__file__).startswith(src + os.sep):
        sys.exit(f"error: tamedbsde was imported from {tamedbsde.__file__}, not {src}")
    workload = WORKLOADS[name]
    cfg = workload.prepare(tamedbsde.load_config(workload.config_path()), SEED, 1)
    out = tempfile.mkdtemp(prefix="ab_time-")
    try:
        for _ in range(WARMUP):
            workload.study(cfg, out)
        print("ready", flush=True)
        for _ in sys.stdin:
            start = time.perf_counter()
            workload.study(cfg, out)
            print(time.perf_counter() - start, flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


class _Worker:
    """A worker process of one checkout, driven over its pipes."""

    def __init__(self, checkout: str, name: str):
        code = f"import sys; sys.path.insert(0, {HERE!r}); import ab_time; ab_time.worker(*sys.argv[1:])"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.proc = subprocess.Popen([sys.executable, "-c", code, checkout, name], cwd=checkout,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._expect("ready")

    def _expect(self, what: str) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()} before {what}")
        return line.strip()

    def study(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return float(self._expect("a study time"))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _summary(label: str, times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{label}: median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s"


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit("usage: scripts/ab_time.py REV WORKLOAD [ROUNDS]")
    rev, name = argv[0], argv[1]
    rounds = int(argv[2]) if len(argv) == 3 else 20
    if rounds < 1:
        sys.exit("ROUNDS must be at least 1")
    tmp = tempfile.mkdtemp(prefix="ab_time-")
    tree = os.path.join(tmp, "rev")
    workers = []
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", tree, rev],
                       check=True)
        # appended one by one, so that a worker that fails to start leaves
        # the one before it to be closed
        workers.append(_Worker(tree, name))
        workers.append(_Worker(ROOT, name))
        base, this = workers
        a, b = [], []
        for r in range(rounds):
            if r % 2 == 0:
                a.append(base.study())
                b.append(this.study())
            else:
                b.append(this.study())
                a.append(base.study())
        ratios = [tb / ta for ta, tb in zip(a, b)]
        print(f"{name}, {rounds} rounds, alternating which side goes first")
        print(_summary(rev, a))
        print(_summary("this checkout", b))
        print(f"per-round ratio (this / {rev}): median {statistics.median(ratios):.4f}; "
              f"this checkout won {sum(t < 1.0 for t in ratios)} of {rounds} rounds")
    finally:
        for w in workers:
            w.close()
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree],
                       stderr=subprocess.DEVNULL, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
