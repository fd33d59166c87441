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
from operator import itemgetter

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
    shift_evalue,
)
from .constructors import fit_moderated_model, moderated_t_evalue
from .core import MalformedValue, as_evector, as_pvector
from .procedures import REGISTRY, ProcedureSpec
from .sim import AdversarialScenario, check_field_types, run_campaign, scenario_from_dict, scenario_to_dict


class CliInputError(Exception):
    """Malformed input file or config; maps to exit code 2."""


def _open_csv(path: str):
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put first
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CliInputError(f"cannot open {path}: {exc}") from None


def _read_columns(path: str, columns: tuple) -> list:
    """The stripped cells of a CSV with the given header, one list per column.

    Blank rows are skipped; every other row must have one field per column.
    """
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise CliInputError("line 1: empty file, expected a header row")
            if [h.strip() for h in header] != list(columns):
                raise CliInputError(
                    f"line 1: expected header {','.join(columns)}, got {','.join(header)}"
                )
            rows = [row for row in reader if row]
        except UnicodeDecodeError:
            _fail_undecodable(path)
    if set(map(len, rows)) - {len(columns)}:
        row = next(i for i, cells in enumerate(rows) if len(cells) != len(columns))
        _fail(path, [(row, f"expected {len(columns)} fields, got {len(rows[row])}")])
    if not rows:
        raise CliInputError("line 2: no data rows")
    # not zip(*rows): an iterator per row sets off the cyclic collector
    return [list(map(str.strip, map(itemgetter(i), rows))) for i in range(len(columns))]


def _fail_undecodable(path: str):
    """Raise naming the physical line of the first byte that is not UTF-8.

    The text reader decodes ahead of the csv parser, so the error it
    raises cannot say where the byte is; the raw bytes can.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the sentinel makes the line holding the bad byte count even when
        # the byte starts it; splitlines breaks at \n, \r and \r\n as csv does
        line = len((data[: exc.start] + b"?").splitlines())
        raise CliInputError(f"line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8") from None


def _data_lines(path: str) -> list:
    """The physical line on which each data row ends.

    Only the error path re-reads the file for this; counting physical
    lines keeps the number right after a quoted cell that spans lines.
    """
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        next(reader)
        return [reader.line_num for row in reader if row]


def _fail(path: str, errors: list):
    """Raise for the earliest data row among (row, message) errors.

    On a tie the first listed wins, so callers list them in checking order.
    """
    found = [error for error in errors if error is not None]
    if found:
        row, message = min(found, key=lambda error: error[0])
        raise CliInputError(f"line {_data_lines(path)[row]}: {message}")


def _parse_column(cells: list, name: str, fill: str = ""):
    """Floats of a column of cells, empty cells reading as fill.

    Returns (values, error): error is None, or the (row, message) of the
    first unparsable cell, and then values stop before that row.
    """
    if fill and "" in cells:
        cells = [cell or fill for cell in cells]
    try:
        return np.array(cells, dtype=float), None
    except ValueError:
        values = []
        for text in cells:
            try:
                values.append(float(text))
            except ValueError:
                return np.array(values), (len(values), f"cannot parse {name}={text!r} as a number")


def _refused(check, values: np.ndarray, requirement: str):
    """(row, message) of the first value a core vector check refuses, or None."""
    try:
        if values.size:
            check(values)
    except MalformedValue as exc:
        return exc.record_id, f"{requirement}, got {values[exc.record_id].item()!r}"
    return None


def _flagged(bad: np.ndarray, message: str):
    """(row, message) of the first flagged value, or None."""
    return (int(np.argmax(bad)), message) if bad.any() else None


def _load_hypotheses(path: str):
    """Parse an id,p,e file: returns (ids, p, e, p_missing).

    A missing p reads as NaN (as 0 for the range check), a missing e as 1.
    """
    ids, p_cells, e_cells = _read_columns(path, ("id", "p", "e"))
    p_missing = np.array([not cell for cell in p_cells], dtype=bool)
    p, p_error = _parse_column(p_cells, "p", fill="0")
    e, e_error = _parse_column(e_cells, "e", fill="1")
    p_error = _refused(as_pvector, p, "p-value must lie in [0, 1]") or p_error
    e_error = _refused(as_evector, e, "e-value must lie in [0, +inf]") or e_error
    _fail(path, [p_error, e_error])
    p[p_missing] = np.nan
    _check_unique(path, ids)
    return ids, p, e, p_missing


def _check_unique(path: str, ids: list):
    """Refuse a repeated id, naming the line of its second occurrence."""
    # a sorted copy holds only references, far less memory than a set of ids
    if all(a != b for a, b in itertools.pairwise(sorted(ids))):
        return
    first_row = {}
    for row, row_id in enumerate(ids):
        first = first_row.setdefault(row_id, row)
        if first != row:
            lines = _data_lines(path)
            raise CliInputError(
                f"line {lines[row]}: duplicate id {row_id!r} (first seen on line {lines[first]})"
            )


def _fmt(values, blank=None):
    """Cells of a float column at repr precision, made lazily.

    Rows flagged in blank are left empty.
    """
    cells = map(repr, np.asarray(values, dtype=float).tolist())
    if blank is None:
        return cells
    return ("" if empty else cell for cell, empty in zip(cells, blank.tolist()))


def _write_csv(path: str, header: list, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _next_to(out_path: str, suffix: str) -> str:
    """A file written beside the output CSV: its stem plus suffix."""
    return (out_path[:-4] if out_path.endswith(".csv") else out_path) + suffix


def _write_json(path: str, payload: dict):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_adjust(args) -> int:
    ids, p, e, p_missing = _load_hypotheses(args.input)
    spec = _spec_from_args(args)
    if spec.needs_p:
        _fail(args.input, [_flagged(p_missing, f"procedure {spec.name} needs a p-value but the cell is empty")])
    if args.lambda_shift is not None:
        try:
            e = shift_evalue(e, args.lambda_shift)
        except BadLambda as exc:
            _usage_error(str(exc))
    result = spec.build()(p, e)
    _write_csv(
        args.out,
        ["id", "p", "e", "adjusted", "rejected"],
        zip(ids, _fmt(p, blank=p_missing), _fmt(e), _fmt(result.adjusted), result.mask.astype(int).tolist()),
    )
    _write_json(
        _next_to(args.out, ".json"),
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


def _config_list(config: dict, key: str, kinds, described: str) -> list:
    """The nonempty list under a config key, each item one of kinds."""
    value = config.get(key)
    if value is None or value == []:
        raise CliInputError(f"config key {key!r} is missing or empty")
    if not isinstance(value, list) or not all(isinstance(item, kinds) for item in value):
        raise CliInputError(f"config key {key!r} must be a list of {described}")
    return value


def _procedures_from_config(config: dict) -> list:
    # top-level alpha and tau are defaults for every procedure entry
    defaults = {key: config[key] for key in ("alpha", "tau") if key in config}
    try:
        check_field_types(ProcedureSpec, defaults, lambda key: f"config key {key!r}")
    except TypeError as exc:
        raise CliInputError(str(exc)) from None
    specs = []
    for entry in _config_list(config, "procedures", (str, dict), "names or objects"):
        if isinstance(entry, str):
            entry = {"name": entry}
        if "name" not in entry:
            raise CliInputError("each procedure entry must be a name or an object with 'name'")
        extra = set(entry) - set(ProcedureSpec.__dataclass_fields__)
        if extra:
            raise CliInputError(f"unknown procedure key {sorted(extra)[0]!r}")
        if any(spec.name == entry["name"] for spec in specs):
            raise CliInputError(f"procedure {entry['name']!r} appears twice; procedure names must be unique")
        try:
            check_field_types(ProcedureSpec, entry, lambda key: f"key {key!r}")
            specs.append(ProcedureSpec(**{**defaults, **entry}))
        except KeyError:
            raise CliInputError(f"unknown procedure name {entry['name']!r}") from None
        except (TypeError, ValueError, BadCalibrator) as exc:
            raise CliInputError(f"procedure {entry['name']!r}: {exc}") from None
    return specs


def cmd_simulate(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise CliInputError(f"cannot open {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        _fail_undecodable(args.config)
    if not isinstance(config, dict):
        raise CliInputError("config must be a JSON object")
    allowed = {"alpha", "tau", "scenarios", "procedures"}
    extra = set(config) - allowed
    if extra:
        raise CliInputError(f"unknown config key {sorted(extra)[0]!r}")
    scenarios = []
    for entry in _config_list(config, "scenarios", dict, "objects"):
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
    rates = ["fdr", "se_fdr", "power", "se_power", "fwer", "se_fwer", "pfer", "se_pfer"]
    rows = []
    for index, label in enumerate(labels):
        for spec in specs:
            metric = campaign.metrics[(index, spec.name)]
            rows.append([label, spec.name, *_fmt([getattr(metric, rate) for rate in rates]), metric.replicates])
    _write_csv(args.out, ["scenario", "procedure", *rates, "replicates"], rows)
    manifest = {
        "master_seed": args.seed,
        "replicates": args.reps,
        "package_version": __version__,
        "scenarios": [scenario_to_dict(s) for s in scenarios],
        "procedures": [asdict(spec) for spec in specs],
    }
    _write_json(_next_to(args.out, ".manifest.json"), manifest)
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
    ids, p, e, p_missing = _load_hypotheses(args.input)
    _fail(args.input, [_flagged(p_missing, "combiners need a p-value but the cell is empty")])
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
    _write_csv(args.out, ["id", "combined"], zip(ids, _fmt(combined)))
    return 0


_MODERATE_COLUMNS = ("id", "beta_hat", "s_sq", "v", "nu")


def cmd_moderate(args) -> int:
    ids, *cells = _read_columns(args.input, _MODERATE_COLUMNS)
    (beta_hat, beta_error), (s_sq, s_error), (v, v_error), (nu, nu_error) = (
        _parse_column(column, name) for column, name in zip(cells, _MODERATE_COLUMNS[1:])
    )
    _fail(
        args.input,
        [
            beta_error,
            _flagged(~(s_sq > 0), "s_sq must be strictly positive") or s_error,
            _flagged(~((v > 0) & (v < np.inf)), "v must be positive and finite") or v_error,
            _flagged(~((nu > 0) & (nu < np.inf)), "nu must be positive and finite") or nu_error,
        ],
    )
    try:
        model, t_tilde, p = fit_moderated_model(beta_hat, s_sq, v, nu)
    except MalformedValue as exc:
        raise CliInputError(str(exc)) from None
    e = moderated_t_evalue(t_tilde, model)
    _write_csv(args.out, ["id", "t_tilde", "p", "e"], zip(ids, _fmt(t_tilde), _fmt(p), _fmt(e)))
    _write_json(
        _next_to(args.out, ".json"),
        {
            "df_prior": "inf" if math.isinf(model.df_prior) else model.df_prior,
            "s2_prior": model.s2_prior,
            "gamma": model.gamma,
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
