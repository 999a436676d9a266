"""Repository benchmark for tamedbsde.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy, and the run fails (exit 1, no result)
when ./src/tamedbsde is missing.  Workloads are described in
perfbench/README.md.

One run of one workload:

1. one untimed run of the explosion-demo shape, checked for explosion as
   data (it also warms the process up);
2. the timed loop, for --seconds of wall time: complete study calls, CSV
   emission included, each followed by two runs of the workload's
   yardstick, a fixed piece of work (perfbench/yardstick.py; two more run
   before the first study).  `study_s` is the studies' typical wall time
   scaled by the yardstick's reference time over its typical time, typical
   being the mean without the two extremes: the study's time on a host as
   fast as the reference host, whatever the shared host's speed was during
   the run.
   With --trace 0, a fresh child interpreter (perfbench/fresh.py) that
   imports tamedbsde and its CLI, loads the workload config and then runs
   the set-up yardstick is spawned after each study, up to SETUP_REPS of
   them;
3. --trace 0 only: the remaining set-up spawns, then one last fresh process
   that also runs one study, with nproc scheme threads on lsmc_converge;
   its peak RSS is `peak_rss_mb`.  `setup_s` is the typical time from
   spawn to "ready" of the SETUP_REPS set-up children, scaled the same way
   by their own yardstick runs (a child may run on another core than this
   process);
4. --trace 1 only: one more study with every layer probed (perfbench/spans.py),
   with nproc scheme threads on lsmc_converge; the per-layer metrics come
   from it and its spans are written to perfbench/out/spans_<workload>.csv.
   `trace.overhead_s` is its time minus that of the same study untraced:
   one more study with nproc scheme threads on lsmc_converge, the typical
   wall time of step 2 elsewhere.

The timed studies of lsmc_converge run one scheme thread; the CSV of the
study with nproc of them (step 3 or 4) must be byte-identical to theirs.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` (scheme runs) and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

# One BLAS thread.  A BLAS pool on top of the scheme pool, or on top of
# another tenant's load on a shared host, oversubscribes the cores: OpenBLAS
# threads then spin-wait for preempted peers and one lstsq call can take ten
# times as long.  Set before numpy is first imported; fresh.py children
# inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
FRESH = os.path.join(ROOT, "perfbench", "fresh.py")
SETUP_REPS = 7


def _import_package():
    """Import tamedbsde from this checkout's src/ or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "tamedbsde", "__init__.py")):
        sys.exit(f"error: {SRC}/tamedbsde not found; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import tamedbsde

    if os.path.dirname(os.path.dirname(os.path.abspath(tamedbsde.__file__))) != SRC:
        sys.exit(f"error: tamedbsde was imported from {tamedbsde.__file__}, not {SRC}")
    return tamedbsde


def _spawn(args: list[str]) -> tuple[float, float, str]:
    """Run perfbench/fresh.py with `args`.  Returns the seconds from spawn
    until the child reported it was ready, the time of the child's one
    yardstick run right after that, and the rest of its standard output
    ("" when it exited with an error after that)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, FRESH, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        seconds = time.perf_counter() - start
        yard = child.stdout.readline().split()
        try:
            tail, _ = child.communicate(timeout=150)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if ready.strip() != "ready" or len(yard) != 2 or yard[0] != "yardstick":
        raise RuntimeError(f"fresh process exited with {child.returncode} before it was ready")
    if child.returncode != 0:
        print(f"fresh process exited with {child.returncode}", file=sys.stderr)
        return seconds, float(yard[1]), ""
    return seconds, float(yard[1]), tail.strip()


def setup_sample(workload) -> tuple[float, float]:
    """Spawn-to-ready seconds of one fresh process that loads the workload,
    and the time of its yardstick run."""
    return _spawn([workload.config_path()])[:2]


def fresh_study(workload, seed: int, nproc: int, out_dir: str):
    """One fresh process that loads the workload and runs one study in
    `out_dir`, as a CLI run would.  Returns its {"peak_rss_mb", "result"},
    or None when the study failed."""
    tail = _spawn([workload.config_path(), workload.name, str(seed), str(nproc), out_dir])[2]
    return json.loads(tail.splitlines()[-1]) if tail else None


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "none (not a git checkout)"


def _openblas() -> tuple[str, int | None]:
    """(config string, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown", None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return get_config().decode(), int(get_threads())
    return "unknown", None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _size_bytes(text: str) -> int | None:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    try:
        return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    except (ValueError, IndexError):
        return None


def environment(nproc: int, design_bytes: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    blas_config, blas_threads = _openblas()
    caches = _cache_sizes()
    l2 = _size_bytes(caches.get("L2", ""))
    return {
        "git_sha": _git_sha(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas_config,
        "blas_threads": blas_threads,
        "caches": caches,
        "design_bytes": design_bytes,
        "design_over_l2": round(design_bytes / l2, 3) if l2 else None,
    }


class Tally:
    """Attempted and failed scheme runs over every study of the benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def study(self, label: str, run, check, expected: list[str], reference=None):
        """Run `run()`, check its result with `check(result)` and count the
        scheme runs in `expected` as attempted, and as failed where they
        fail their check or differ from `reference`.  Returns (outcome,
        seconds), timing `run()` only.  A study that raises fails all of
        its scheme runs."""
        self.attempted += len(expected)
        start = time.perf_counter()
        try:
            result = run()
            seconds = time.perf_counter() - start
            outcome = check(result)
        except Exception:  # a failing study is counted; the benchmark goes on
            traceback.print_exc()
            self.failed += len(expected)
            print(f"{label}: raised, {len(expected)} scheme runs failed", file=sys.stderr)
            return None, time.perf_counter() - start
        failed = outcome.failures(reference)
        self.failed += len(failed)
        if failed:
            print(f"{label}: failed {sorted(failed)}", file=sys.stderr)
        return outcome, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tamedbsde = _import_package()
    from tamedbsde import experiments
    from spans import LAYER_METRICS, Recorder, expected_design_counts, layer_metrics, probes
    from workloads import (EXPLOSION_DEMO, WORKLOADS, convergence_outcome, design_bytes,
                           scheme_runs)
    from yardstick import SETUP_YARDSTICK, YARDSTICKS, typical

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    # timed with one scheme thread: with two, the pool threads contend for
    # the GIL, take 1.35 times as long as one thread and swing with how the
    # host schedules the second core
    cfg = workload.prepare(tamedbsde.load_config(workload.config_path()), args.seed, 1)
    env = environment(nproc, design_bytes(cfg))
    print(json.dumps({"env": env}, sort_keys=True))

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    tally = Tally()
    setup, fresh = [], None
    try:
        demo = tamedbsde.load_config(EXPLOSION_DEMO)
        demo.seed = args.seed
        demo_path = os.path.join(scratch, "explosion_demo.csv")
        tally.study("explosion demo",
                    lambda: experiments.emit_csv(experiments.convergence_study(demo), demo_path),
                    lambda _: convergence_outcome(demo, demo_path), scheme_runs(demo))

        def study(run_cfg):
            return lambda: workload.study(run_cfg, scratch)

        def check(run_cfg):
            return lambda result: workload.outcome(run_cfg, result)

        reference = None
        yardstick = YARDSTICKS[workload.yardstick]
        times, yards = [], [yardstick.time(), yardstick.time()]
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < args.seconds:
            outcome, seconds = tally.study(f"study {len(times) + 1}", study(cfg), check(cfg),
                                           scheme_runs(cfg), reference)
            times.append(seconds)
            yards += [yardstick.time(), yardstick.time()]
            reference = reference or outcome
            if not args.trace and len(setup) < SETUP_REPS:
                # set-up samples between the studies see the host the studies see
                setup.append(setup_sample(workload))

        if not args.trace:
            while len(setup) < SETUP_REPS:
                setup.append(setup_sample(workload))
            os.mkdir(os.path.join(scratch, "fresh"))
            fresh = fresh_study(workload, args.seed, nproc, os.path.join(scratch, "fresh"))
            # fresh is None when its study failed; that fails here too
            tally.study("fresh-process study", lambda: fresh["result"], check(cfg),
                        scheme_runs(cfg), reference)

        layers = {}
        if args.trace:
            traced_cfg, untraced_s = cfg, typical(times)
            if workload.pooled:
                # the pool is traced; the same study untraced is the base of
                # trace.overhead_s
                traced_cfg = workload.prepare(tamedbsde.load_config(workload.config_path()),
                                              args.seed, nproc)
                _, untraced_s = tally.study("pooled study", study(traced_cfg),
                                            check(traced_cfg), scheme_runs(traced_cfg),
                                            reference)
            rec = Recorder()

            def traced():
                with probes(rec), rec.study():
                    return workload.study(traced_cfg, scratch)

            tally.study("traced study", traced, check(traced_cfg), scheme_runs(traced_cfg),
                        reference)
            layers = layer_metrics(rec.spans, traced_cfg.threads, untraced_s)
            want_designs, want_fits = expected_design_counts(rec.spans)
            counts_ok = (layers["regression.design_builds"], layers["regression.fits"]) == (
                want_designs, want_fits)
            print(f"count check: {layers['regression.design_builds']} design builds, "
                  f"{layers['regression.fits']} fits; 4 and 2 per (scheme, step) gives "
                  f"{want_designs} and {want_fits}: {'match' if counts_ok else 'DIFFERENT'}")
            rec.write(os.path.join(OUT, f"spans_{workload.name}.csv"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted
    # the typical study time at the host speed the yardstick measured
    host_speed = yardstick.reference_s / typical(yards)
    study_s = typical(times) * host_speed
    print(f"study_s {study_s:.4f} s (typical wall time x {host_speed:.4f} host speed)")
    print(f"wall study times (typical {typical(times):.4f} s): "
          + ", ".join(f"{t:.3f}" for t in times))
    print(f"{workload.yardstick} yardstick times (typical {typical(yards):.4f} s, "
          f"reference {yardstick.reference_s} s): "
          + ", ".join(f"{t:.3f}" for t in yards))
    if setup:
        ready, child_yards = zip(*setup)
        child_speed = SETUP_YARDSTICK.reference_s / typical(child_yards)
        setup_s = typical(ready) * child_speed
        print(f"setup_s {setup_s:.4f} s (typical spawn-to-ready time x "
              f"{child_speed:.4f} host speed)")
        print(f"spawn-to-ready times (typical {typical(ready):.4f} s): "
              + ", ".join(f"{t:.3f}" for t in ready))
        print(f"child yardstick times (typical {typical(child_yards):.4f} s): "
              + ", ".join(f"{t:.3f}" for t in child_yards))
    if fresh is not None:
        print(f"peak_rss_mb {fresh['peak_rss_mb']:.1f} MB (fresh process, one study)")
    print(f"failed_frac {failed_frac:.4g} frac ({tally.failed} of {tally.attempted} scheme runs)")
    if args.trace:
        units = dict(LAYER_METRICS)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in LAYER_METRICS}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "study_s": {"value": study_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        if fresh is not None:  # never this process's RSS, which grows with its studies
            metrics["peak_rss_mb"] = {"value": fresh["peak_rss_mb"], "unit": "MB"}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
