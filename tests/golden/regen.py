"""The golden battery: committed inputs, and the exit code, stderr and
output digests that each `epmt` command gives on them.

    PYTHONPATH=src python tests/golden/regen.py

runs every case on the current tree and rewrites expected.json beside
this file. tests/golden/test_golden.py runs the same cases and compares.
A change that moves a digest on purpose reruns this and names each moved
case, with its reason, in CHANGES.md.

Each case runs in process through cli.main, with stderr captured and the
warning filters reset to "default", so a warning prints once, as it does
from a fresh `python -m epmt`. A case may lower table._BLOCK_ROWS, which
sets the rows per block of both the reader's csv path and the writer,
and table._READ_CHARS, the characters per block the reader cuts at commas.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy
import scipy

from epmt import cli, table
from epmt.procedures import REGISTRY

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def _cases() -> dict:
    """name -> (argv, table attributes to patch); {golden} in an argument is
    this folder, {out} the case's own empty output folder."""
    cases = {}
    for source in ("mixed", "filled"):
        for name in sorted(REGISTRY):
            for shift, flags in (("", []), ("-shift", ["--lambda-shift", "0.3"])):
                argv = ["adjust", "--input", f"{{golden}}/{source}.csv", "--procedure", name, "--alpha", "0.1"]
                cases[f"adjust-{source}-{name}{shift}"] = ([*argv, *flags, "--out", "{out}/out.csv"], {})
    for mode, flags in (
        ("quotient", []),
        ("bonferroni", []),
        ("product", ["--calibrator", "sqrt"]),
        ("mean", ["--calibrator", "kappa:0.5", "--mean-weight", "0.3"]),
    ):
        argv = ["combine", "--input", "{golden}/filled.csv", "--mode", mode, *flags, "--out", "{out}/out.csv"]
        cases[f"combine-{mode}"] = (argv, {})
    argv = ["combine", "--input", "{golden}/mixed.csv", "--mode", "quotient", "--out", "{out}/out.csv"]
    cases["combine-mixed-blank-p"] = (argv, {})
    # a finite and an infinite df_prior, and nu of 38, 1e20 and 1.7e308 side by side
    for fit in ("finite", "inf", "huge_nu"):
        argv = ["moderate", "--input", f"{{golden}}/moderate_{fit}.csv", "--out", "{out}/out.csv"]
        cases[f"moderate-{fit.replace('_', '-')}"] = (argv, {})
    for config, reps in (("mixed", "12"), ("adversarial", "40"), ("warns", "6")):
        for parallelism in ("1", "2"):
            argv = ["simulate", "--config", f"{{golden}}/{config}.json", "--reps", reps, "--seed", "5"]
            argv += ["--parallelism", parallelism, "--out", "{out}/out.csv"]
            cases[f"simulate-{config}-par{parallelism}"] = (argv, {})
    # many small blocks: the reader cuts the first rows at their commas and
    # hands the rest, from the first quote, to csv.reader, 7 rows a pass
    for name, argv in (
        ("adjust-ep-bh", ["adjust", "--input", "{golden}/filled.csv", "--procedure", "ep-bh"]),
        ("adjust-e-bh", ["adjust", "--input", "{golden}/mixed.csv", "--procedure", "e-bh"]),
        ("combine-product", ["combine", "--input", "{golden}/filled.csv", "--mode", "product", "--calibrator", "sqrt"]),
        ("moderate", ["moderate", "--input", "{golden}/moderate_finite.csv"]),
    ):
        cases[f"blocks7-{name}"] = ([*argv, "--out", "{out}/out.csv"], {"_BLOCK_ROWS": 7, "_READ_CHARS": 100})
    # refusals: header, reader, value, id and config errors (exit 2), flag values (exit 3),
    # a header cell over csv's field size limit and two scenario values out of range (exit 2);
    # none prints argparse's usage, whose wrapping follows the terminal width
    for name, argv in (
        ("header", ["adjust", "--input", "{golden}/bad_header.csv", "--procedure", "e-bh"]),
        ("fields", ["adjust", "--input", "{golden}/bad_fields.csv", "--procedure", "e-bh"]),
        ("value", ["adjust", "--input", "{golden}/bad_value.csv", "--procedure", "ep-bh"]),
        ("utf8", ["combine", "--input", "{golden}/bad_utf8.csv", "--mode", "quotient"]),
        ("duplicate", ["adjust", "--input", "{golden}/dup_id.csv", "--procedure", "e-bh"]),
        ("config", ["simulate", "--config", "{golden}/bad_config.json", "--reps", "2"]),
        ("reps", ["simulate", "--config", "{golden}/mixed.json", "--reps", "0"]),
        ("calibrator", ["combine", "--input", "{golden}/filled.csv", "--mode", "product", "--calibrator", "kappa:2"]),
        ("lambda", ["adjust", "--input", "{golden}/filled.csv", "--procedure", "ep-bh", "--lambda-shift", "1.5"]),
        ("long-header", ["adjust", "--input", "{golden}/long_header.csv", "--procedure", "e-bh"]),
        ("effect-var", ["simulate", "--config", "{golden}/bad_effect_var.json", "--reps", "2"]),
        ("n-hypotheses", ["simulate", "--config", "{golden}/bad_n_hypotheses.json", "--reps", "2"]),
    ):
        cases[f"refuse-{name}"] = ([*argv, "--out", "{out}/out.csv"], {})
    return cases


CASES = _cases()

# the files whose bytes the digests rest on
INPUTS = sorted(path.name for path in HERE.iterdir() if path.suffix in (".csv", ".json") and path != EXPECTED)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(name: str, out_dir: Path) -> dict:
    """The exit code, stderr and output digests of one case, run in process."""
    argv, patches = CASES[name]
    stderr = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stderr(stderr))
        stack.enter_context(warnings.catch_warnings())
        warnings.resetwarnings()
        warnings.simplefilter("default")
        for attribute, value in patches.items():
            stack.enter_context(mock.patch.object(table, attribute, value))
        code = cli.main([arg.format(golden=HERE, out=out_dir) for arg in argv])
    outputs = {path.name: sha256(path) for path in sorted(out_dir.iterdir())}
    return {"argv": argv, "patches": patches, "exit": code, "stderr": stderr.getvalue(), "outputs": outputs}


def main():
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in CASES:
            out_dir = Path(scratch) / name
            out_dir.mkdir()
            results[name] = run_case(name, out_dir)
    expected = {
        "versions": versions(),
        "inputs": {name: sha256(HERE / name) for name in INPUTS},
        "cases": results,
    }
    EXPECTED.write_text(json.dumps(expected, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    main()
