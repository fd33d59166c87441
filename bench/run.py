"""End-to-end and per-layer benchmark of the `epmt` command line tool.

Run from the repository root:

    python3 bench/run.py --workload adjust-large --seed 1 --seconds 20 --trace 0

--trace 0 times the workload's CLI calls as fresh subprocesses
(`python -m epmt`, with src/ on PYTHONPATH), from process start until the
output files are on disk, in a closed loop of one caller for --seconds.
Every call's output is checked. Each iteration of the loop runs an
`epmt --version` call (every second iteration only), the reference job
and one workload call. End-to-end metrics:

  setup_s       wall time of `epmt --version` (import plus argparse): the
                mean of the faster half of the run's samples, at least 5
  call_rel      wall time of one workload call (`epmt adjust` on
                adjust-large, `epmt simulate` on the simulate workloads) in
                units of the reference job's wall time: the mean of the
                faster half of the run's calls over the mean of the faster
                half of its reference jobs
  call_cpu_rel  the same for user+sys CPU time, pool workers included
  peak_rss_mb   largest maximum resident set of any timed call

The reference job (REFERENCE_JOB) is fixed work that uses no code of the
program: a fresh interpreter round-trips a 150k-row CSV table through the
csv module and numpy, as `epmt adjust` does, in about 1.2 s. It runs as
many copies at once as the workload has worker processes. The host is
shared: other tenants slow every process on it, in wall and CPU time
alike, by up to 1.7x, in bursts of a second and in stretches of minutes.
The faster half of a run's samples leaves out most bursts, and the ratio
to the reference job, measured in the same stretch, cancels the rest.
The raw times are printed too: call_s, call_cpu_s, items_per_s (rows or
scenario-replicates per wall second of one call, start-up included) and
reference_s, each with its median, lower-half mean, extremes, sample
count and tail percentile.

A call that exits non-zero, times out or fails its check counts in the
result's `failed` out of `attempted`; failed/attempted is the failed share.

--trace 1 runs the same traced suite whatever the workload, in this
process with parallelism 1: one call each of adjust-large, simulate-ttest
and simulate-mixed-par2 through `epmt.cli.main` with the layer boundaries
wrapped (see spans.py), the same call untraced to measure the tracing
overhead, an import-time probe, and a process-pool start-up probe. It
prints the per-layer metrics and, per call, each layer's self time as a
share of the traced total (import time plus the in-process call) with the
residual no span covers. trace.overhead_s and trace.total_s belong to the
call of the selected workload.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Inputs come only from --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import (  # noqa: E402
    ADJUST_PROCEDURES,
    ALPHA,
    WORKLOADS,
    Workload,
    check_adjust_output,
    check_identical,
    check_rates,
    make_adjust_input,
    reference_bracket,
    write_adjust_csv,
)

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_CALLS = 5
SETUP_EVERY = 2
# Fixed work shaped like `epmt adjust` (csv-module parsing and writing of
# a large table, float conversion, a numpy sort) that runs none of the
# program's code. It prints the same line on every run.
REFERENCE_JOB = """
import csv, io
import numpy as np
rng = np.random.default_rng(5)
n = 150000
p, e = rng.random(n), rng.exponential(size=n)
buf = io.StringIO()
csv.writer(buf).writerows(zip((f"h{i}" for i in range(n)), p.tolist(), e.tolist()))
rows = list(csv.reader(io.StringIO(buf.getvalue())))
pp = np.array([float(r[1]) for r in rows])
ee = np.array([float(r[2]) for r in rows])
order = np.argsort(pp / ee)
out = io.StringIO()
csv.writer(out).writerows(zip([r[0] for r in rows], pp.tolist(), ee.tolist(), order.tolist()))
print("reference", len(rows), len(out.getvalue()))
"""
CALL_TIMEOUT_S = 60.0
IMPORT_PROBES = 3
POOL_PROBES = 3


# ----------------------------------------------------------------- bookkeeping


class Tally:
    """CLI calls attempted and the ones that failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)


def low_half_mean(samples: list) -> float:
    """Mean of the smaller half of the samples (the middle one included)."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[: (len(ordered) + 1) // 2])


def describe(samples: list) -> dict:
    """Median, mean of the lower half, extremes, sample count, the highest
    percentile with >= 10 samples beyond it, and the samples in the order
    they were taken."""
    ordered = sorted(samples)
    tail = None
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
            tail = {"percentile": pct, "value": ordered[rank]}
            break
    return {
        "median": statistics.median(ordered),
        "low_half": low_half_mean(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "tail": tail,
        "samples": samples,
    }


def provenance(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@contextmanager
def workspace(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ------------------------------------------------------------- subprocess calls


@dataclass
class Call:
    returncode: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str

    def problems(self) -> list:
        if self.timed_out:
            return [f"timed out after {CALL_TIMEOUT_S:.0f} s"]
        if self.returncode != 0:
            return [f"exit {self.returncode}: {self.stderr.strip()[-300:]}"]
        return []


def run_processes(commands: list, work: Path, env: dict) -> list:
    """Start every command at once and wait for all; one Call each.

    Each wall time runs from the common start until that process is
    reaped, in order, so the last is the time until all have ended.
    os.wait4 reports a process's CPU time and peak RSS including its own
    waited-for children (the pool workers): the same accounting as a
    getrusage(RUSAGE_CHILDREN) delta around the call, per call.
    """
    files, procs, ended = [], [], {}
    fired = threading.Event()

    def kill():
        fired.set()
        for proc in procs:
            if proc.pid not in ended:
                proc.kill()

    timer = threading.Timer(CALL_TIMEOUT_S, kill)
    try:
        started = time.perf_counter()
        for i, command in enumerate(commands):
            out_path, err_path = work / f"stdout{i}.txt", work / f"stderr{i}.txt"
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                procs.append(subprocess.Popen(command, cwd=work, env=env, stdout=out, stderr=err))
            files.append((out_path, err_path))
        timer.start()
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            ended[proc.pid] = (time.perf_counter() - started, status, usage)
            proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        kill()
        for proc in procs:
            if proc.pid not in ended:
                proc.wait()
        raise
    finally:
        timer.cancel()
    calls = []
    for proc, (out_path, err_path) in zip(procs, files):
        wall, _, usage = ended[proc.pid]
        calls.append(
            Call(
                returncode=proc.returncode,
                timed_out=fired.is_set(),
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0,
                stdout=out_path.read_text(errors="replace"),
                stderr=err_path.read_text(errors="replace"),
            )
        )
    return calls


def run_program(argv: list, work: Path) -> Call:
    """Run `python -m epmt argv` to completion; time it and take its rusage."""
    (call,) = run_processes([[sys.executable, "-m", "epmt", *argv]], work, program_env())
    return call


def run_reference(copies: int, work: Path):
    """Run `copies` reference jobs at once; (wall s, CPU s, problems)."""
    calls = run_processes([[sys.executable, "-c", REFERENCE_JOB]] * copies, work, dict(os.environ))
    problems = [p for call in calls for p in call.problems()]
    outputs = {call.stdout for call in calls}
    if not problems and (len(outputs) != 1 or not outputs.pop().startswith("reference 150000 ")):
        problems.append(f"reference job printed {sorted({c.stdout for c in calls})!r}")
    return max(c.wall_s for c in calls), sum(c.cpu_s for c in calls), problems


def _version_problems(call: Call) -> list:
    return call.problems() or ([] if call.stdout.startswith("epmt ") else [f"stdout {call.stdout!r}"])


# ------------------------------------------------------------------ timed run


def _adjust_argv(input_csv: Path, procedure: str, out: Path) -> list:
    return ["adjust", "--input", str(input_csv), "--procedure", procedure, "--alpha", repr(ALPHA), "--out", str(out)]


def _simulate_argv(config: Path, workload: Workload, seed: int, parallelism: int, out: Path) -> list:
    return [
        "simulate", "--config", str(config), "--reps", str(workload.reps), "--seed", str(seed),
        "--parallelism", str(parallelism), "--out", str(out),
    ]  # fmt: skip


def _remove_outputs(out: Path):
    for path in out.parent.glob(out.stem + ".*"):
        path.unlink()


def prepare_adjust(workload: Workload, seed: int, work: Path):
    """Write the seeded input; return (input path, data, reference brackets)."""
    data = make_adjust_input(seed, workload.rows)
    input_csv = work / "hypotheses.csv"
    write_adjust_csv(str(input_csv), data)
    brackets = {name: reference_bracket(name, data.p, data.e) for name in ADJUST_PROCEDURES}
    return input_csv, data, brackets


def timed_run(workload: Workload, seed: int, seconds: float, work: Path):
    """Closed loop of one caller: the reference job, then one workload call,
    with a `--version` call before every SETUP_EVERY-th pair of them.

    An untimed `--version` call and reference job first warm the file cache
    and write the bytecode caches. The setup samples are interleaved with
    the workload calls so that both see the same stretch of machine time.
    The loop stops before an iteration would end after `seconds`, always
    runs at least once, and tops the setup samples up to SETUP_CALLS.
    """
    tally = Tally()
    out = work / "out.csv"
    if workload.kind == "adjust":
        input_csv, data, brackets = prepare_adjust(workload, seed, work)

        def one_call(i):
            procedure = ADJUST_PROCEDURES[i % len(ADJUST_PROCEDURES)]
            call = run_program(_adjust_argv(input_csv, procedure, out), work)
            return call, f"adjust {procedure}", call.problems() or check_adjust_output(
                str(out), str(work / "out.json"), data, procedure, brackets[procedure]
            )

    else:
        config = work / "campaign.json"
        config.write_text(json.dumps(workload.config))
        reference = None
        if workload.parallelism > 1:
            serial_out = work / "serial.csv"
            call = run_program(_simulate_argv(config, workload, seed, 1, serial_out), work)
            if tally.record("serial reference", call.problems()):
                reference = serial_out.read_bytes()

        def one_call(i):
            call = run_program(_simulate_argv(config, workload, seed, workload.parallelism, out), work)
            problems = call.problems() or check_rates(str(out), workload)
            if workload.parallelism > 1 and not problems:
                problems = check_identical(str(out), reference) if reference else ["no serial reference"]
            return call, "simulate", problems

    def setup_call(label):
        call = run_program(["--version"], work)
        tally.record(label, _version_problems(call))
        setup.append(call.wall_s)

    setup, calls, ref_wall, ref_cpu = [], [], [], []
    tally.record("warm-up", _version_problems(run_program(["--version"], work)))
    tally.record("reference warm-up", run_reference(workload.parallelism, work)[2])
    started = time.perf_counter()
    i = 0
    while True:
        begun = time.perf_counter()
        if i % SETUP_EVERY == 0:
            setup_call(f"setup #{i}")
        wall, cpu, problems = run_reference(workload.parallelism, work)
        tally.record(f"reference #{i}", problems)
        ref_wall.append(wall)
        ref_cpu.append(cpu)
        _remove_outputs(out)
        call, label, problems = one_call(i)
        tally.record(f"{label} #{i}", problems)
        calls.append(call)
        i += 1
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            break
    for j in range(len(setup), SETUP_CALLS):
        setup_call(f"setup #{j}")

    # Failed calls stay in the timings; the result's `failed` count flags them.
    timings = {
        "setup_s": ("s", describe(setup)),
        "call_s": ("s", describe([c.wall_s for c in calls])),
        "call_cpu_s": ("s", describe([c.cpu_s for c in calls])),
        "items_per_s": ("1/s", describe([workload.items_per_call / c.wall_s for c in calls])),
        "reference_s": ("s", describe(ref_wall)),
        "reference_cpu_s": ("s", describe(ref_cpu)),
        "peak_rss_mb": ("MB", describe([c.maxrss_mb for c in calls])),
    }
    return tally, timings


def end_to_end(timings: dict) -> dict:
    """The reported metrics, from the timings of one run."""

    def half(name):
        return timings[name][1]["low_half"]

    return {
        "setup_s": (half("setup_s"), "s"),
        "call_rel": (half("call_s") / half("reference_s"), "x"),
        "call_cpu_rel": (half("call_cpu_s") / half("reference_cpu_s"), "x"),
        "peak_rss_mb": (timings["peak_rss_mb"][1]["max"], "MB"),
    }


# ------------------------------------------------------------------ traced run


# -X importtime cannot see scipy.stats: scipy loads it lazily through
# importlib, which bypasses the import statement that importtime reports.
_IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import numpy, scipy
t1 = time.perf_counter()
import scipy.stats
t2 = time.perf_counter()
import epmt.cli
t3 = time.perf_counter()
print(t3 - t0, t2 - t1)
"""


def import_probe() -> tuple[float, float]:
    """Seconds to import epmt.cli, and scipy.stats within it, in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=program_env(), capture_output=True, text=True,
        timeout=CALL_TIMEOUT_S,
    )  # fmt: skip
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed: {done.stderr.strip()[-300:]}")
    epmt_cli, scipy_stats = map(float, done.stdout.split())
    return epmt_cli, scipy_stats


def pool_startup_probe(config: dict, seed: int) -> float:
    """run_campaign at parallelism 2, one replicate per worker, minus its serial time."""
    from epmt.procedures import ProcedureSpec
    from epmt.sim import run_campaign, scenario_from_dict

    scenarios = [scenario_from_dict(s) for s in config["scenarios"]]
    specs = [ProcedureSpec(name, alpha=config["alpha"]) for name in config["procedures"]]
    elapsed = {}
    for parallelism in (1, 2):
        started = time.perf_counter()
        run_campaign(scenarios, specs, replicates=2, master_seed=seed, parallelism=parallelism)
        elapsed[parallelism] = time.perf_counter() - started
    return elapsed[2] - elapsed[1]


def _median(values) -> float:
    values = list(values)
    if not values:
        raise RuntimeError("the traced suite produced no sample for a required metric")
    return statistics.median(values)


def _span_median(tracer, name: str, scale: float, attr: str = "duration") -> float:
    return _median(getattr(s, attr) for s in tracer.spans if s.name == name) * scale


def traced_pass(workloads: dict, seed: int, work: Path, tally: Tally):
    """One pass of the traced suite.

    Returns (per-layer metrics, share table per workload, tracing overhead
    per workload, tracer per workload).
    """
    from epmt import cli
    from spans import Tracer, instrument, layer_self_times, share_table

    imports = []
    for i in range(IMPORT_PROBES):
        try:
            imports.append(import_probe())
            tally.record(f"import probe {i}", [])
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            tally.record(f"import probe {i}", [str(exc)])
    import_cli = _median(t[0] for t in imports)
    import_scipy = _median(t[1] for t in imports)

    adjust = workloads["adjust-large"]
    input_csv, data, brackets = prepare_adjust(adjust, seed, work)
    out = work / "traced.csv"
    runs = {"adjust-large": (_adjust_argv(input_csv, "ep-bh", out), None)}
    for name in ("simulate-ttest", "simulate-mixed-par2"):
        config = work / f"{name}.json"
        config.write_text(json.dumps(workloads[name].config))
        runs[name] = (_simulate_argv(config, workloads[name], seed, 1, out), workloads[name])

    tracers, tables, overheads = {}, {}, {}
    for name, (argv, workload) in runs.items():
        walls = {}
        for traced in (True, False):
            _remove_outputs(out)
            started = time.perf_counter()
            if traced:
                tracers[name] = Tracer()
                with instrument(tracers[name]):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
            walls[traced] = time.perf_counter() - started
            problems = [f"exit {code}"] if code != 0 else []
            if not problems and name == "adjust-large":
                problems = check_adjust_output(str(out), str(work / "traced.json"), data, "ep-bh", brackets["ep-bh"])
            elif not problems:
                problems = check_rates(str(out), workload)
            tally.record(f"in-process {name} traced={traced}", problems)
        self_times = layer_self_times(tracers[name])
        self_times["startup"] = import_cli
        tables[name] = share_table(self_times, import_cli + walls[True])
        overheads[name] = walls[True] - walls[False]

    t_adj, t_tt, t_mix = tracers["adjust-large"], tracers["simulate-ttest"], tracers["simulate-mixed-par2"]
    (adjust_index,) = [i for i, s in enumerate(t_adj.spans) if s.name == "cli.adjust"]
    adjust_span = t_adj.spans[adjust_index]
    (kernel,) = [t_adj.spans[i] for i in t_adj.children(adjust_index)]
    fdp_calls = sum(s.name == "core.fdp_and_power" for s in t_tt.spans)
    metrics = {
        "startup.import_epmt_cli_s": (import_cli, "s"),
        "startup.import_scipy_stats_s": (import_scipy, "s"),
        "cli.adjust_call_s": (adjust_span.duration, "s"),
        "cli.adjust_self_s": (adjust_span.self_time, "s"),
        "cli.rows": (kernel.size, "count"),
        "procedures.adjust.call_ms": (kernel.duration * 1e3, "ms"),
        "procedures.rejected": (kernel.rejected, "count"),
    }
    for proc in workloads["simulate-ttest"].config["procedures"]:
        metrics[f"procedures.{proc}.call_us"] = (_span_median(t_tt, f"procedures.{proc}", 1e6), "us")
    metrics["calib.combine_product_us"] = (_span_median(t_tt, "calib.combine_product", 1e6), "us")
    metrics["core.fdp_and_power_us"] = (_span_median(t_tt, "core.fdp_and_power", 1e6), "us")
    metrics["core.fdp_and_power_calls"] = (fdp_calls, "count")
    metrics["constructors.chisq_lr_evalue_ms"] = (_span_median(t_tt, "constructors.chisq_lr_evalue", 1e3), "ms")
    for fn in ("fit_limma_hyperparameters", "moderated_t", "fit_gamma", "moderated_t_evalue"):
        metrics[f"constructors.{fn}_ms"] = (_span_median(t_mix, f"constructors.{fn}", 1e3), "ms")
    for kind, tracer in (("ttest", t_tt), ("microarray", t_mix)):
        metrics[f"sim.generate_self.{kind}_ms"] = (_span_median(tracer, f"sim.generate.{kind}", 1e3, "self_time"), "ms")
        batches = [s for s in tracer.spans if s.name == f"sim.batch.{kind}"]
        per_replicate = sum(b.duration for b in batches) / sum(b.size for b in batches)
        metrics[f"sim.replicate.{kind}_ms"] = (per_replicate * 1e3, "ms")
    metrics["sim.campaign_self_s"] = (_span_median(t_tt, "sim.run_campaign", 1.0, "self_time"), "s")
    mixed = workloads["simulate-mixed-par2"].config
    metrics["sim.pool_startup_s"] = (_median(pool_startup_probe(mixed, seed) for _ in range(POOL_PROBES)), "s")
    return metrics, tables, overheads, tracers


def traced_run(workload: Workload, seed: int, seconds: float, work: Path):
    """Repeat the traced suite while another pass fits in --seconds (at least once)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tally = Tally()
    passes = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        metrics, tables, overheads, _ = traced_pass(WORKLOADS, seed, work, tally)
        metrics["trace.overhead_s"] = (overheads[workload.name], "s")
        metrics["trace.total_s"] = (sum(row[1] for row in tables[workload.name]), "s")
        passes.append(metrics)
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            break
    merged = {
        key: (statistics.median(p[key][0] for p in passes), unit) for key, (_, unit) in passes[0].items()
    }
    return tally, merged, tables, len(passes)


# ---------------------------------------------------------------------- main


def _print_result(tally: Tally, metrics: dict):
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "epmt" / "cli.py").is_file():
        print(f"error: no epmt sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    info = provenance(args.seed)

    with workspace(args.workload) as work:
        if args.trace:
            tally, metrics, tables, passes = traced_run(workload, seed, args.seconds, work)
        else:
            tally, timings = timed_run(workload, seed, args.seconds, work)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(info, sort_keys=True))
    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"calls attempted {tally.attempted}  failed {tally.failed}  failed_frac {failed_frac:.4f}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    if args.trace:
        print(f"traced suite passes: {passes}")
        for name, rows in tables.items():
            print(f"layer self time, {name} (traced total {sum(r[1] for r in rows):.3f} s)")
            for layer, seconds, share in rows:
                print(f"  {layer:<13} {seconds:10.4f} s  {100 * share:6.2f} %")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:14.6g} {unit}")
        record = {"workload": workload.name, "provenance": info, "shares": tables, "metrics": metrics}
        print("record " + json.dumps(record))
    else:
        metrics = end_to_end(timings)
        for name, (unit, d) in timings.items():
            tail = "-" if d["tail"] is None else f"p{d['tail']['percentile']:g}={d['tail']['value']:.6g}"
            print(
                f"  {name:<15} median {d['median']:10.5g}  low half {d['low_half']:10.5g}"
                f"  min {d['min']:10.5g}  max {d['max']:10.5g} {unit:<4} n={d['n']:<3} tail {tail}"
            )
        for name, (value, unit) in metrics.items():
            print(f"  reported {name:<13} {value:12.6g} {unit}")
        print("record " + json.dumps({"workload": workload.name, "provenance": info, "timings": timings}))
    _print_result(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
