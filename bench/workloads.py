"""Workload definitions, seeded inputs and output checks for the benchmark.

Everything here uses the standard library and numpy only. The step-up
reference below is written independently of `epmt.procedures`: it builds
step-up adjusted values (a reverse cumulative minimum over the sorted
statistics) instead of searching for the largest passing rank, so an
error in either formulation shows up as a disagreement.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

ALPHA = 0.1
TAU = 0.5
ADJUST_PROCEDURES = ("p-bh", "ep-bh", "pe-bh", "ep-storey")
ALL_PROCEDURES = (
    "p-bh",
    "p-bh-by",
    "e-bh",
    "wbh-normalized",
    "ep-bh",
    "pe-bh",
    "ep-storey",
    "wbh-storey-normalized",
    "ep-bonferroni",
    "adaptive-e-bh",
)
MIXED_PROCEDURES = ("p-bh", "e-bh", "ep-bh", "pe-bh", "ep-storey", "wbh-storey-normalized")
FDR_CHECKED = ("p-bh", "ep-bh", "e-bh")
# A reference rejection may differ from the program's only for a statistic
# this close (relative) to the step-up threshold.
ROUNDOFF_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which CLI path it drives and at what size.

    kind is "adjust" or "simulate". For adjust, rows is the input size; for
    simulate, config is the campaign config, reps the replicates per
    scenario and parallelism the worker count of the timed calls.
    """

    name: str
    kind: str
    rows: int = 0
    config: dict | None = None
    reps: int = 0
    parallelism: int = 1

    @property
    def items_per_call(self) -> int:
        """Rows (adjust) or scenario-replicates (simulate) one call finishes."""
        if self.kind == "adjust":
            return self.rows
        return self.reps * len(self.config["scenarios"])


def ttest_config(n_hypotheses: int = 2000) -> dict:
    return {
        "alpha": ALPHA,
        "scenarios": [{"kind": "ttest", "n_hypotheses": n_hypotheses, "effect": 2.5}],
        "procedures": list(ALL_PROCEDURES),
    }


def mixed_config(n_hypotheses: int = 2000) -> dict:
    return {
        "alpha": ALPHA,
        "scenarios": [
            {"kind": "ttest", "n_hypotheses": n_hypotheses, "effect": 2.5},
            {"kind": "microarray", "n_hypotheses": n_hypotheses},
        ],
        "procedures": list(MIXED_PROCEDURES),
    }


# simulate-ttest is timed only on request: BENCHMARK.json leaves it out so
# that each of the other two gets a longer, steadier run, and the traced
# suite runs its call to measure the procedures, calib, core and chi-square
# layers at K=2000.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("adjust-large", "adjust", rows=200_000),
        Workload("simulate-ttest", "simulate", config=ttest_config(), reps=400, parallelism=1),
        Workload("simulate-mixed-par2", "simulate", config=mixed_config(), reps=100, parallelism=2),
    )
}


# ------------------------------------------------------------------ adjust input


@dataclass(frozen=True)
class AdjustInput:
    ids: list
    p: np.ndarray
    e: np.ndarray  # e-values as the program should read them (empty cell -> 1.0)
    e_empty: np.ndarray  # rows written with an empty e cell


def make_adjust_input(seed: int, rows: int) -> AdjustInput:
    """Seeded id,p,e table: 10% non-nulls with informative e-values.

    Null e-values are likelihood ratios exp(theta*z - theta^2/2) with
    z ~ N(0, 1), so their mean is 1; non-nulls draw z ~ N(theta, 1) and a
    p-value concentrated near 0. A sprinkling of rows (at least one each)
    gets an empty e cell, e = inf, or p = 0.
    """
    rng = np.random.default_rng([seed, 0xAD])
    alt = rng.random(rows) < 0.10
    p = rng.random(rows)
    p[alt] = p[alt] ** 10.0
    theta = 2.0
    z = rng.standard_normal(rows) + np.where(alt, theta, 0.0)
    e = np.exp(theta * z - 0.5 * theta * theta)

    def sprinkle(fraction):
        return rng.choice(rows, size=max(1, round(fraction * rows)), replace=False)

    e_empty = np.zeros(rows, dtype=bool)
    e_empty[sprinkle(0.005)] = True
    e[sprinkle(0.0005)] = np.inf
    p[sprinkle(0.0005)] = 0.0
    e[e_empty] = 1.0
    ids = [f"h{i:07d}" for i in range(rows)]
    return AdjustInput(ids, p, e, e_empty)


def write_adjust_csv(path: str, data: AdjustInput):
    """Write the table with shortest round-trip floats, as the CLI reads them."""
    with open(path, "w", newline="") as handle:
        handle.write("id,p,e\n")
        for row_id, p, e, empty in zip(data.ids, data.p.tolist(), data.e.tolist(), data.e_empty.tolist()):
            handle.write(f"{row_id},{p!r},{'' if empty else repr(e)}\n")


# -------------------------------------------------------------- step-up reference


def _step_up_adjusted(q: np.ndarray) -> np.ndarray:
    """Step-up adjusted values min_{j >= rank(i)} K * q_(j) / j, input order."""
    k_total = q.size
    order = np.argsort(q, kind="stable")
    scaled = q[order] * k_total / np.arange(1, k_total + 1)
    adjusted = np.empty(k_total)
    adjusted[order] = np.minimum.accumulate(scaled[::-1])[::-1]
    return adjusted


def _quotient(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(p == 0.0, 0.0, p / w)
    return np.minimum(q, 1.0)


def reference_statistic(name: str, p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Small-is-significant statistic whose step-up at ALPHA is procedure `name`."""
    if name == "p-bh":
        return p
    if name == "ep-bh":
        return _quotient(p, e)
    if name == "pe-bh":
        with np.errstate(divide="ignore"):
            h = np.where(p > 0.0, p ** -0.5 - 1.0, np.inf)
            merged = np.where(np.isinf(h) | np.isinf(e), np.inf, h * e)
            return np.where(merged > 0.0, 1.0 / merged, np.inf)
    if name == "ep-storey":
        pi0 = (1.0 + np.count_nonzero(p > TAU)) / (p.size * (1.0 - TAU))
        return _quotient(p, np.where(p <= TAU, e / pi0, 0.0))
    raise KeyError(f"no reference for procedure {name!r}")


def reference_bracket(name: str, p: np.ndarray, e: np.ndarray, alpha: float = ALPHA):
    """(must_reject, may_reject) masks; they differ only within round-off."""
    adjusted = _step_up_adjusted(reference_statistic(name, p, e))
    return adjusted <= alpha * (1.0 - ROUNDOFF_RTOL), adjusted <= alpha * (1.0 + ROUNDOFF_RTOL)


# ------------------------------------------------------------------ output checks


def check_adjust_output(csv_path: str, json_path: str, data: AdjustInput, procedure: str, bracket) -> list:
    """Problems found in one `epmt adjust` output; empty when it is correct."""
    try:
        with open(csv_path, newline="") as handle:
            header = handle.readline()
            rows = [line.rstrip("\n").split(",") for line in handle]
        with open(json_path) as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"cannot read output: {exc}"]
    if header != "id,p,e,adjusted,rejected\n":
        return [f"unexpected header {header!r}"]
    if len(rows) != len(data.ids) or any(len(row) != 5 for row in rows):
        return [f"expected {len(data.ids)} rows of 5 fields"]
    ids, p_col, e_col, _, rej_col = zip(*rows)
    problems = []
    if list(ids) != data.ids:
        problems.append("id column differs from the input")
    try:
        if not np.array_equal(np.array(p_col, dtype=float), data.p):
            problems.append("p column does not round-trip to the input floats")
        if not np.array_equal(np.array(e_col, dtype=float), data.e):
            problems.append("e column does not round-trip to the input floats")
    except ValueError:
        problems.append("p or e column holds a non-number")
    rejected = np.array(rej_col) == "1"
    must, may = bracket
    if (must & ~rejected).any() or (rejected & ~may).any():
        problems.append(
            f"{procedure}: rejected column differs from the reference "
            f"({int(rejected.sum())} vs {int(must.sum())}..{int(may.sum())})"
        )
    if summary.get("procedure") != procedure or summary.get("n_rejected") != int(rejected.sum()):
        problems.append(f"summary {summary!r} disagrees with the rejected column")
    return problems


def check_rates(csv_path: str, workload: Workload) -> list:
    """Every scenario lists every procedure with the requested replicates,
    and the FDR of p-bh, ep-bh and e-bh stays within alpha + 4 standard errors."""
    try:
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    expected = len(workload.config["scenarios"]) * len(workload.config["procedures"])
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    problems = []
    for row in rows:
        label = f"{row.get('scenario')} {row.get('procedure')}"
        try:
            fdr, se, replicates = float(row["fdr"]), float(row["se_fdr"]), int(row["replicates"])
        except (KeyError, TypeError, ValueError):
            return [f"{label}: unreadable row {row!r}"]
        if replicates != workload.reps:
            problems.append(f"{label}: {replicates} replicates, expected {workload.reps}")
        if row["procedure"] in FDR_CHECKED and not fdr <= ALPHA + 4.0 * se:
            problems.append(f"{label}: FDR {fdr:.4f} exceeds {ALPHA} + 4 * {se:.4f}")
    return problems


def check_identical(csv_path: str, reference: bytes) -> list:
    """The parallel campaign CSV must match the serial run byte for byte."""
    try:
        with open(csv_path, "rb") as handle:
            produced = handle.read()
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    return [] if produced == reference else ["CSV differs from the serial run with the same seed"]
