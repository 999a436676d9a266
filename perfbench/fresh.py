"""One fresh process of a workload: set-up, then optionally one study.

    PYTHONPATH=src python3 perfbench/fresh.py <config> [<workload> <seed> <nproc> <out_dir>]

Prints "ready" once tamedbsde and its CLI are imported and the config is
loaded; run.py times process start to that line for `setup_s`.  Without a
workload it then prints the time of one run of the set-up yardstick, which
tells run.py how fast the core this process runs on is.  Given a workload
it prints "yardstick nan" instead, runs one study of it in <out_dir> and
prints one JSON line with the process's peak RSS and the study's result
for the output check.

The peak RSS is VmHWM of /proc/self/status.  ru_maxrss is not used: Linux
carries the parent's peak over into it when the child is spawned, so it
would grow with the studies run.py ran before.
"""

import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> None:
    import tamedbsde.cli  # noqa: F401  (the import a CLI run pays)
    from tamedbsde import load_config

    cfg = load_config(argv[0])
    print("ready", flush=True)
    if len(argv) == 1:
        from yardstick import SETUP_YARDSTICK

        SETUP_YARDSTICK.time()  # the first run in a process pays for first calls
        print(f"yardstick {SETUP_YARDSTICK.time():.6f}", flush=True)
        return
    # the study child's yardstick is not used: its arrays would count in
    # the child's peak RSS
    print("yardstick nan", flush=True)

    import json

    from workloads import WORKLOADS

    name, seed, nproc, out_dir = argv[1:5]
    workload = WORKLOADS[name]
    result = workload.study(workload.prepare(cfg, int(seed), int(nproc)), out_dir)
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "result": result}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
