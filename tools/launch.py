"""Measure `python -m epmt ...` as its own process: wall time, CPU time,
minor page faults and peak resident set.

    python tools/launch.py [--repeat N] [--src DIR ...] -- ARGS...

Each run is started with os.posix_spawn and reaped with os.wait4, so the
numbers are the program's own. subprocess.Popen forks this process first,
and Linux carries a forked parent's high-water mark into the child's
ru_maxrss; posix_spawn does not. The program's stdout goes to /dev/null,
its stderr is kept.

Every run prints one line. With several --src directories (default: this
checkout's src), runs alternate between them, and the summary gives, per
directory, the exit codes and the mean of the lower half of each measure
(the middle run included), as bench/run.py does.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

MEASURES = ("wall_s", "cpu_s", "minflt", "peak_mb")


def launch(src: str, args: list) -> dict:
    """One run of `python -m epmt *args` with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "epmt", *args], env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "minflt": usage.ru_minflt,
        "peak_mb": usage.ru_maxrss / 1024,  # KiB on Linux
    }


def low_half_mean(samples: list) -> float:
    """Mean of the smaller half of the samples (the middle one included)."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[: (len(ordered) + 1) // 2])


def main(argv=None) -> int:
    default_src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=1, help="runs per source directory (default 1)")
    parser.add_argument("--src", action="append", help="a src directory holding epmt; repeat to alternate")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="arguments of `python -m epmt`, after --")
    options = parser.parse_args(argv)
    args = options.args[1:] if options.args[:1] == ["--"] else options.args
    if options.repeat < 1 or not args:
        parser.error("needs --repeat >= 1 and the arguments of epmt after --")
    sources = [os.path.normpath(src) for src in options.src or [default_src]]
    runs = {src: [] for src in sources}
    for index in range(options.repeat):
        for src in sources:
            run = launch(src, args)
            runs[src].append(run)
            cells = " ".join(f"{name} {run[name]:.4g}" for name in MEASURES)
            print(f"run {index + 1} {src}: exit {run['exit']} {cells}", flush=True)
    for src, done in runs.items():
        cells = " ".join(f"{name} {low_half_mean([run[name] for run in done]):.4g}" for name in MEASURES)
        codes = sorted({run["exit"] for run in done})
        print(f"lower-half mean of {len(done)} {src}: exit {','.join(map(str, codes))} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
