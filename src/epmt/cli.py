"""Command line interface.

Subcommands:
  adjust    run a multiple-testing procedure on a CSV of hypotheses
  simulate  replicate scenarios from a config file and report error rates
  combine   merge each (p, e) pair into one p-value or e-value
  moderate  fit the moderated-t pipeline on summary statistics

Exit codes: 0 success (even with zero rejections); 2 malformed input
(reported with the first offending line or key), an input that cannot be
read or an output that cannot be written; 3 a usage error or a worker
process that cannot start.

CSV conventions: floats are written with repr-level precision, the
shortest round-trip (at most 17 significant digits); infinity is the
literal `inf`, and an empty cell means missing. A cell holding a comma,
a quote, CR or LF is quoted. Output is UTF-8 in any locale.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from errno import EISDIR

from . import __version__

# At load time this module imports only the standard library, so `epmt
# --version`, `--help` and every usage error exit before numpy loads. Each
# subcommand imports what it runs inside its body: numpy, the layers, and
# `table`, the CSV layer. `sim` and `constructors` import scipy, which only
# `simulate` and `moderate` need.


class CliInputError(Exception):
    """Malformed input file or config; maps to exit code 2."""


def _summary_path(out_path: str, suffix: str) -> str:
    """Where a summary lands beside the output CSV: its stem plus suffix."""
    return (out_path[:-4] if out_path.endswith(".csv") else out_path) + suffix


def _check_out_dir(path: str, summary: str | None):
    """Refuse an --out path whose directory does not exist, or that is a
    directory, or whose summary path (None for no summary) is one.

    Runs before any input is read, numpy loaded or worker forked, so the
    refusal costs nothing and leaves no file behind; _open_output still
    names any other write error at the end.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise CliInputError(f"cannot write {path}: no directory {directory}")
    for target in [path, _summary_path(path, summary)] if summary else [path]:
        if os.path.isdir(target):
            # open's own words, which it would raise only after all the work
            refusal = IsADirectoryError(EISDIR, os.strerror(EISDIR), target)
            raise CliInputError(f"cannot write {target}: {refusal}")


def cmd_adjust(args) -> int:
    from .calib import shift_evalue
    from .procedures import ProcedureSpec
    from .table import _HYPOTHESES, _load_table, _write_csv, _write_json

    try:
        spec = ProcedureSpec(
            args.procedure, alpha=args.alpha, tau=args.tau, calibrator=args.calibrator, merging=args.merging
        )
        if args.lambda_shift is not None:
            shift_evalue(1.0, args.lambda_shift)  # refuses a lambda outside [0, 1]
    except (ValueError, KeyError) as exc:
        _usage_error(str(exc))
    required = f"procedure {spec.name} needs a p-value but the cell is empty" if spec.needs_p else None
    ids, p, e = _load_table(args.input, _HYPOTHESES, required)
    if args.lambda_shift is not None:
        e = shift_evalue(e, args.lambda_shift)
    result = spec.build()(p, e)
    _write_csv(args.out, ["id", "p", "e", "adjusted", "rejected"], [ids, p, e, result.adjusted, result.mask])
    _write_json(
        args.out,
        args.summary,
        {
            "procedure": spec.name,
            "alpha": spec.alpha,
            "k_star": result.threshold_index,
            "n_rejected": result.threshold_index,
        },
    )
    return 0


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(3)


def run_campaign(*args, **kwargs):
    """sim.run_campaign, importing sim on the first call.

    cmd_simulate calls it through this module global, where a tracer can
    wrap it without loading sim for the other subcommands.
    """
    from . import sim

    return sim.run_campaign(*args, **kwargs)


def cmd_simulate(args) -> int:
    from dataclasses import asdict

    import numpy as np

    from .sim import ConfigError, TooManyReplicates, _scenario_label, campaign_from_config, scenario_to_dict
    from .table import _read_config, _write_csv, _write_json

    try:
        scenarios, specs = campaign_from_config(_read_config(args.config))
        campaign = run_campaign(
            scenarios,
            specs,
            replicates=args.reps,
            master_seed=args.seed,
            parallelism=args.parallelism,
        )
    except ConfigError as exc:
        raise CliInputError(str(exc)) from None
    except TooManyReplicates as exc:
        _usage_error(f"--reps {args.reps} is too large: {exc}")
    except OSError as exc:  # only the pool raises one: the config's are CliInputError
        _usage_error(f"--parallelism {args.parallelism}: cannot start a worker process: {exc}")
    labels = [_scenario_label(scenario, index) for index, scenario in enumerate(scenarios)]
    rates = ["fdr", "se_fdr", "power", "se_power", "fwer", "se_fwer", "pfer", "se_pfer"]
    # keyed (scenario index, procedure name), in CSV row order
    metrics = campaign.metrics.values()
    _write_csv(
        args.out,
        ["scenario", "procedure", *rates, "replicates"],
        [
            [labels[index] for index, _ in campaign.metrics],
            [name for _, name in campaign.metrics],
            *(np.array([getattr(metric, rate) for metric in metrics]) for rate in rates),
            [str(metric.replicates) for metric in metrics],
        ],
    )
    manifest = {
        "master_seed": args.seed,
        "replicates": args.reps,
        "package_version": __version__,
        "scenarios": [scenario_to_dict(scenario) for scenario in scenarios],
        "procedures": [asdict(spec) for spec in specs],
    }
    _write_json(args.out, args.summary, manifest)
    return 0


_COMBINE_MODES = ("quotient", "product", "mean", "bonferroni")
# sorted(procedures.REGISTRY), written out so that the parser loads no layer;
# tests/test_cli.py holds the two equal
_PROCEDURES = (
    "adaptive-e-bh",
    "e-bh",
    "ep-bh",
    "ep-bonferroni",
    "ep-storey",
    "p-bh",
    "p-bh-by",
    "pe-bh",
    "wbh-normalized",
    "wbh-storey-normalized",
)


def cmd_combine(args) -> int:
    from functools import partial

    from .calib import (
        BadCalibrator,
        BadLambda,
        combine_bonferroni,
        combine_mean,
        combine_product,
        combine_quotient,
        parse_calibrator,
    )
    from .table import _HYPOTHESES, _load_table, _write_csv

    if args.mode in ("product", "mean") and args.calibrator is None:
        _usage_error(f"--calibrator is required for mode {args.mode!r}")
    try:
        calibrator = None if args.calibrator is None else parse_calibrator(args.calibrator)
        combine = {
            "quotient": combine_quotient,
            "product": partial(combine_product, calibrator=calibrator),
            "mean": partial(combine_mean, calibrator=calibrator, weight=args.mean_weight),
            "bonferroni": combine_bonferroni,
        }[args.mode]
        combine(0.5, 1.0)  # the mean combiner refuses a weight outside (0, 1)
    except (BadCalibrator, BadLambda) as exc:
        _usage_error(str(exc))
    ids, p, e = _load_table(args.input, _HYPOTHESES, "combiners need a p-value but the cell is empty")
    _write_csv(args.out, ["id", "combined"], [ids, combine(p, e)])
    return 0


def cmd_moderate(args) -> int:
    import math

    from .constructors import fit_moderated_model, moderated_t_evalue
    from .core import MalformedValue
    from .table import _SUMMARIES, _load_table, _write_csv, _write_json

    ids, beta_hat, s_sq, v, nu = _load_table(args.input, _SUMMARIES)
    try:
        model, t_tilde, p = fit_moderated_model(beta_hat, s_sq, v, nu)
    except MalformedValue as exc:
        raise CliInputError(str(exc)) from None
    e = moderated_t_evalue(t_tilde, model)
    _write_csv(args.out, ["id", "t_tilde", "p", "e"], [ids, t_tilde, p, e])
    _write_json(
        args.out,
        args.summary,
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
    adjust.add_argument("--procedure", required=True, choices=_PROCEDURES)
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
    adjust.set_defaults(func=cmd_adjust, summary=".json")

    simulate = sub.add_parser("simulate", help="replicate scenarios from a config file")
    simulate.add_argument("--config", required=True, help="JSON config with scenarios and procedures")
    simulate.add_argument("--reps", type=int, default=100, help="replicates per scenario (default 100)")
    simulate.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    simulate.add_argument("--parallelism", type=int, default=1, help="worker processes (default 1)")
    simulate.add_argument("--out", required=True, help="output CSV path; a .manifest.json lands next to it")
    simulate.set_defaults(func=cmd_simulate, summary=".manifest.json")

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
    combine.set_defaults(func=cmd_combine, summary=None)

    moderate = sub.add_parser("moderate", help="fit the moderated-t pipeline on summary statistics")
    moderate.add_argument("--input", required=True, help="CSV with header id,beta_hat,s_sq,v,nu")
    moderate.add_argument("--out", required=True, help="output CSV path; a .json summary lands next to it")
    moderate.set_defaults(func=cmd_moderate, summary=".json")
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():  # the caller's filters still apply: `-W error` raises
        warnings.showwarning = lambda message, *where: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            if args.command == "simulate":
                if args.reps < 1:
                    _usage_error("--reps must be >= 1")
                if args.seed < 0:
                    _usage_error("--seed must be >= 0")
                if args.parallelism < 1:
                    _usage_error("--parallelism must be >= 1")
            _check_out_dir(args.out, args.summary)
            return args.func(args)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
        except CliInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entry():  # console-script hook
    # One command is one bounded run, and the cyclic garbage it leaves does
    # not grow with its input (tests/test_cli.py counts it), so the command
    # runs without the cyclic collector. The collector would otherwise walk
    # the ~40,000 objects that numpy and scipy.special leave tracked, in
    # about a hundred passes while they load and again in the final
    # collections at exit; freezing them spares the exit pass. Together
    # that was 40-75 ms of a 0.55-0.65 s `simulate` (2-core Xeon,
    # Python 3.11). Streams still flush and atexit handlers still run;
    # main() and every in-process caller keep the collector.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)
