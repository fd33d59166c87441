"""Command line interface.

Subcommands:
  adjust    run a multiple-testing procedure on a CSV of hypotheses
  simulate  replicate scenarios from a config file and report error rates
  combine   merge each (p, e) pair into one p-value or e-value
  moderate  fit the moderated-t pipeline on summary statistics

Exit codes: 0 success (even with zero rejections), 2 malformed input
(reported with the first offending line or key), 3 usage errors.

CSV conventions: floats are written with repr-level precision (shortest
round-trip, 17 significant digits), infinity as the literal `inf`, and an
empty cell means missing. Output is locale-independent.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .calib import (
    BadCalibrator,
    BadLambda,
    combine_bonferroni,
    combine_mean,
    combine_product,
    combine_quotient,
    parse_calibrator,
)
from .constructors import fit_moderated_model, moderated_t, moderated_t_evalue, shift_evalue
from .core import MalformedValue, check_evalue, check_pvalue
from .procedures import REGISTRY, ProcedureSpec
from .sim import AdversarialScenario, run_campaign, scenario_from_dict, scenario_to_dict


class CliInputError(Exception):
    """Malformed input file or config; maps to exit code 2."""


def _fmt(x) -> str:
    return repr(float(x))


def _parse_cell(text: str, line_no: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CliInputError(f"line {line_no}: cannot parse {column}={text!r} as a number") from None


def _read_rows(path: str, columns: tuple) -> list:
    """Read a CSV with the given header; returns (line_no, dict) rows."""
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put first
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CliInputError(f"cannot open {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CliInputError("line 1: empty file, expected a header row") from None
        if [h.strip() for h in header] != list(columns):
            raise CliInputError(
                f"line 1: expected header {','.join(columns)}, got {','.join(header)}"
            )
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise CliInputError(
                    f"line {line_no}: expected {len(columns)} fields, got {len(row)}"
                )
            rows.append((line_no, dict(zip(columns, (cell.strip() for cell in row)))))
        if not rows:
            raise CliInputError("line 2: no data rows")
    return rows


def _load_hypotheses(path: str):
    """Parse an id,p,e file: returns (ids, p, e, p_missing, line_numbers)."""
    rows = _read_rows(path, ("id", "p", "e"))
    ids, p_vals, e_vals, p_missing, lines = [], [], [], [], []
    for line_no, row in rows:
        ids.append(row["id"])
        lines.append(line_no)
        if row["p"] == "":
            p_vals.append(np.nan)
            p_missing.append(True)
        else:
            value = _parse_cell(row["p"], line_no, "p")
            try:
                p_vals.append(check_pvalue(value, row["id"]))
            except MalformedValue as exc:
                raise CliInputError(f"line {line_no}: {exc}") from None
            p_missing.append(False)
        if row["e"] == "":
            e_vals.append(1.0)
        else:
            value = _parse_cell(row["e"], line_no, "e")
            try:
                e_vals.append(check_evalue(value, row["id"]))
            except MalformedValue as exc:
                raise CliInputError(f"line {line_no}: {exc}") from None
    _check_unique(ids, lines)
    return (
        ids,
        np.array(p_vals, dtype=float),
        np.array(e_vals, dtype=float),
        np.array(p_missing, dtype=bool),
        lines,
    )


def _check_unique(ids: list, lines: list):
    """Refuse a repeated id, naming the line of its second occurrence."""
    # a sorted copy holds only references, far less memory than a set of ids
    if all(a != b for a, b in itertools.pairwise(sorted(ids))):
        return
    first_line = {}
    for row_id, line_no in zip(ids, lines):
        first = first_line.setdefault(row_id, line_no)
        if first != line_no:
            raise CliInputError(f"line {line_no}: duplicate id {row_id!r} (first seen on line {first})")


def _summary_path(out_path: str) -> str:
    if out_path.endswith(".csv"):
        return out_path[:-4] + ".json"
    return out_path + ".json"


def _write_json(path: str, payload: dict):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_adjust(args) -> int:
    ids, p, e, p_missing, lines = _load_hypotheses(args.input)
    spec = _spec_from_args(args)
    if spec.needs_p and p_missing.any():
        first = lines[int(np.argmax(p_missing))]
        raise CliInputError(
            f"line {first}: procedure {spec.name} needs a p-value but the cell is empty"
        )
    if args.lambda_shift is not None:
        try:
            e = shift_evalue(e, args.lambda_shift)
        except BadLambda as exc:
            _usage_error(str(exc))
    result = spec.build()(p, e)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "p", "e", "adjusted", "rejected"])
        for i, row_id in enumerate(ids):
            writer.writerow(
                [
                    row_id,
                    "" if p_missing[i] else _fmt(p[i]),
                    _fmt(e[i]),
                    _fmt(result.adjusted[i]),
                    "1" if result.mask[i] else "0",
                ]
            )
    _write_json(
        _summary_path(args.out),
        {
            "procedure": spec.name,
            "alpha": spec.alpha,
            "k_star": result.threshold_index,
            "n_rejected": result.threshold_index,
        },
    )
    return 0


def _spec_from_args(args) -> ProcedureSpec:
    try:
        return ProcedureSpec(
            name=args.procedure,
            alpha=args.alpha,
            tau=args.tau,
            calibrator=args.calibrator,
            merging=args.merging,
        )
    except (ValueError, KeyError, BadCalibrator) as exc:
        _usage_error(str(exc))


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(3)


def _procedures_from_config(config: dict) -> list:
    alpha = config.get("alpha", 0.1)
    tau = config.get("tau", 0.5)
    entries = config.get("procedures")
    if not entries:
        raise CliInputError("config key 'procedures' is missing or empty")
    specs = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or "name" not in entry:
            raise CliInputError("each procedure entry must be a name or an object with 'name'")
        allowed = {"name", "alpha", "tau", "calibrator", "merging"}
        extra = set(entry) - allowed
        if extra:
            raise CliInputError(f"unknown procedure key {sorted(extra)[0]!r}")
        try:
            specs.append(
                ProcedureSpec(
                    name=entry["name"],
                    alpha=entry.get("alpha", alpha),
                    tau=entry.get("tau", tau),
                    calibrator=entry.get("calibrator", "sqrt"),
                    merging=entry.get("merging", "mean"),
                )
            )
        except KeyError:
            raise CliInputError(f"unknown procedure name {entry['name']!r}") from None
        except (ValueError, BadCalibrator) as exc:
            raise CliInputError(f"procedure {entry['name']!r}: {exc}") from None
    return specs


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise CliInputError(f"cannot open {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CliInputError("config must be a JSON object")
    allowed = {"alpha", "tau", "scenarios", "procedures"}
    extra = set(config) - allowed
    if extra:
        raise CliInputError(f"unknown config key {sorted(extra)[0]!r}")
    scenario_dicts = config.get("scenarios")
    if not scenario_dicts:
        raise CliInputError("config key 'scenarios' is missing or empty")
    scenarios = []
    for entry in scenario_dicts:
        try:
            scenarios.append(scenario_from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise CliInputError(f"scenario config: {message}") from None
    specs = _procedures_from_config(config)
    labels = [f"{scenario_to_dict(s)['kind']}-{index}" for index, s in enumerate(scenarios)]
    needs_p = [spec.name for spec in specs if spec.needs_p]
    for label, scenario in zip(labels, scenarios):
        if needs_p and isinstance(scenario, AdversarialScenario):
            raise CliInputError(
                f"scenario {label} generates no p-values, but procedure {needs_p[0]} needs them"
            )
    campaign = run_campaign(
        scenarios,
        specs,
        replicates=args.reps,
        master_seed=args.seed,
        parallelism=args.parallelism,
    )
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "scenario",
                "procedure",
                "fdr",
                "se_fdr",
                "power",
                "se_power",
                "fwer",
                "se_fwer",
                "pfer",
                "se_pfer",
                "replicates",
            ]
        )
        for index, scenario in enumerate(scenarios):
            for spec in specs:
                metric = campaign.metrics[(index, spec.name)]
                writer.writerow(
                    [
                        labels[index],
                        spec.name,
                        _fmt(metric.fdr),
                        _fmt(metric.se_fdr),
                        _fmt(metric.power),
                        _fmt(metric.se_power),
                        _fmt(metric.fwer),
                        _fmt(metric.se_fwer),
                        _fmt(metric.pfer),
                        _fmt(metric.se_pfer),
                        str(metric.replicates),
                    ]
                )
    manifest = {
        "master_seed": args.seed,
        "replicates": args.reps,
        "package_version": __version__,
        "scenarios": [scenario_to_dict(s) for s in scenarios],
        "procedures": [asdict(spec) for spec in specs],
    }
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    _write_json(stem + ".manifest.json", manifest)
    return 0


_COMBINE_MODES = ("quotient", "product", "mean", "bonferroni")


def cmd_combine(args) -> int:
    if args.mode in ("product", "mean") and args.calibrator is None:
        _usage_error(f"--calibrator is required for mode {args.mode!r}")
    calibrator = None
    if args.calibrator is not None:
        try:
            calibrator = parse_calibrator(args.calibrator)
        except BadCalibrator as exc:
            _usage_error(str(exc))
    ids, p, e, p_missing, lines = _load_hypotheses(args.input)
    if p_missing.any():
        first = lines[int(np.argmax(p_missing))]
        raise CliInputError(f"line {first}: combiners need a p-value but the cell is empty")
    if args.mode == "quotient":
        combined = combine_quotient(p, e)
    elif args.mode == "bonferroni":
        combined = combine_bonferroni(p, e)
    elif args.mode == "product":
        combined = combine_product(p, e, calibrator)
    else:
        try:
            combined = combine_mean(p, e, calibrator, weight=args.mean_weight)
        except BadLambda as exc:
            _usage_error(str(exc))
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "combined"])
        for row_id, value in zip(ids, np.atleast_1d(combined)):
            writer.writerow([row_id, _fmt(value)])
    return 0


def cmd_moderate(args) -> int:
    rows = _read_rows(args.input, ("id", "beta_hat", "s_sq", "v", "nu"))
    ids = []
    beta_hat, s_sq, v, nu = [], [], [], []
    for line_no, row in rows:
        ids.append(row["id"])
        beta_hat.append(_parse_cell(row["beta_hat"], line_no, "beta_hat"))
        s_val = _parse_cell(row["s_sq"], line_no, "s_sq")
        if not s_val > 0 or math.isnan(s_val):
            raise CliInputError(f"line {line_no}: s_sq must be strictly positive")
        s_sq.append(s_val)
        v_val = _parse_cell(row["v"], line_no, "v")
        if not v_val > 0 or math.isinf(v_val):
            raise CliInputError(f"line {line_no}: v must be positive and finite")
        v.append(v_val)
        nu_val = _parse_cell(row["nu"], line_no, "nu")
        if not nu_val > 0 or math.isinf(nu_val):
            raise CliInputError(f"line {line_no}: nu must be positive and finite")
        nu.append(nu_val)
    try:
        model, t_tilde = fit_moderated_model(
            np.array(beta_hat), np.array(s_sq), np.array(v), np.array(nu)
        )
    except MalformedValue as exc:
        raise CliInputError(str(exc)) from None
    _, p = moderated_t(np.array(beta_hat), np.array(s_sq), model)
    e = moderated_t_evalue(t_tilde, model)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "t_tilde", "p", "e"])
        for i, row_id in enumerate(ids):
            writer.writerow([row_id, _fmt(t_tilde[i]), _fmt(p[i]), _fmt(e[i])])
    df_prior = np.asarray(model.df_prior, dtype=float).max()
    _write_json(
        _summary_path(args.out),
        {
            "df_prior": "inf" if math.isinf(float(df_prior)) else float(df_prior),
            "s2_prior": float(np.asarray(model.s2_prior, dtype=float).max()),
            "gamma": float(np.asarray(model.gamma, dtype=float).max()),
        },
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for bad
    input files, so usage errors exit 3 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="epmt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"epmt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    adjust = sub.add_parser("adjust", help="run a multiple-testing procedure on a CSV of hypotheses")
    adjust.add_argument("--input", required=True, help="CSV with header id,p,e (empty cell = missing)")
    adjust.add_argument("--procedure", required=True, choices=sorted(REGISTRY))
    adjust.add_argument("--alpha", type=float, default=0.05, help="target level (default 0.05)")
    adjust.add_argument("--tau", type=float, default=0.5, help="Storey threshold (default 0.5)")
    adjust.add_argument(
        "--calibrator",
        default="sqrt",
        help="p-to-e calibrator: sqrt or kappa:<value> (default sqrt)",
    )
    adjust.add_argument(
        "--lambda-shift",
        type=float,
        default=None,
        metavar="LAMBDA",
        help="discount e-values toward 1 before running: lam + (1-lam)*e",
    )
    adjust.add_argument("--merging", choices=("mean", "max"), default="mean", help="adaptive-e-bh merge rule")
    adjust.add_argument("--out", required=True, help="output CSV path; a .json summary lands next to it")
    adjust.set_defaults(func=cmd_adjust)

    simulate = sub.add_parser("simulate", help="replicate scenarios from a config file")
    simulate.add_argument("--config", required=True, help="JSON config with scenarios and procedures")
    simulate.add_argument("--reps", type=int, default=100, help="replicates per scenario (default 100)")
    simulate.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    simulate.add_argument("--parallelism", type=int, default=1, help="worker processes (default 1)")
    simulate.add_argument("--out", required=True, help="output CSV path; a .manifest.json lands next to it")
    simulate.set_defaults(func=cmd_simulate)

    combine = sub.add_parser("combine", help="merge each (p, e) pair into one value")
    combine.add_argument("--input", required=True, help="CSV with header id,p,e")
    combine.add_argument("--mode", required=True, choices=_COMBINE_MODES)
    combine.add_argument("--calibrator", default=None, help="required for product and mean modes")
    combine.add_argument(
        "--mean-weight",
        type=float,
        default=0.5,
        help="calibrated-p weight of the mean combiner, strictly in (0, 1) (default 0.5)",
    )
    combine.add_argument("--out", required=True, help="output CSV path")
    combine.set_defaults(func=cmd_combine)

    moderate = sub.add_parser("moderate", help="fit the moderated-t pipeline on summary statistics")
    moderate.add_argument("--input", required=True, help="CSV with header id,beta_hat,s_sq,v,nu")
    moderate.add_argument("--out", required=True, help="output CSV path; a .json summary lands next to it")
    moderate.set_defaults(func=cmd_moderate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "simulate":
            if args.reps < 1:
                _usage_error("--reps must be >= 1")
            if args.seed < 0:
                _usage_error("--seed must be >= 0")
            if args.parallelism < 1:
                _usage_error("--parallelism must be >= 1")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    sys.exit(main())
