"""Check that the tests catch a list of small, deliberate faults (mutants).

    python tools/mutants.py [NAME ...]

For each mutant in MUTANTS (or only those named), the runner copies src/
to a temporary directory and replaces the mutant's exact old text with its
new text there; an old text that does not occur exactly once is refused,
so a moved or edited line is reported, never skipped. It then runs

    python -m pytest -x -q -p no:cacheprovider <selection>

from the repository root with the copy first on PYTHONPATH, one mutant at
a time, and expects that run to fail its tests (pytest exit code 1). It
prints one line per mutant, "killed", "SURVIVED" or "ERROR" (the mutant
did not apply, or pytest stopped for another reason, such as a collection
error), and exits 1 unless every mutant was killed. The working tree is
never modified.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    selection: tuple


CONSTRUCTORS = "epmt/constructors.py"
CONSTRUCTOR_TESTS = ("tests/test_constructors.py",)
CORE_TESTS = ("tests/test_core.py",)
PROCEDURES = "epmt/procedures.py"
PROCEDURE_TESTS = ("tests/test_procedures.py",)
SIM = "epmt/sim.py"
SIM_TESTS = ("tests/golden", "tests/test_sim.py")
TABLE = "epmt/table.py"
TABLE_TESTS = ("tests/test_cli.py",)
# the float kernel's byte-for-byte checks against repr
PROPERTY_TESTS = ("tests/test_properties.py",)

MUTANTS = [
    # the moderated-t log-e helper
    Mutant(
        "log-e-exponent-d-over-2",
        CONSTRUCTORS,
        "a = np.where(gaussian, 0.0, (d + 1.0) / 2.0)",
        "a = np.where(gaussian, 0.0, d / 2.0)",
        CONSTRUCTOR_TESTS,
    ),
    Mutant(
        "log-e-u-and-w-swapped",
        CONSTRUCTORS,
        "w, u = np.where(edge, 0.0, w), np.where(edge, 1.0, u)",
        "u, w = np.where(edge, 0.0, w), np.where(edge, 1.0, u)",
        CONSTRUCTOR_TESTS,
    ),
    Mutant(
        "log-e-no-half-log1p-g",
        CONSTRUCTORS,
        "        out -= 0.5 * np.log1p(g)\n",
        "",
        CONSTRUCTOR_TESTS,
    ),
    Mutant(
        "log-e-no-gaussian-term",
        CONSTRUCTORS,
        "            out = b / inv_q\n",
        "            out = 0.0 * inv_q\n",
        CONSTRUCTOR_TESTS,
    ),
    Mutant(
        "log-e-no-gaussian-term-beside-finite-d",
        CONSTRUCTORS,
        "                out += b / inv_q\n",
        "                out += 0.0 * inv_q\n",
        CONSTRUCTOR_TESTS,
    ),
    Mutant(
        "log-e-no-limit-at-infinite-t",
        CONSTRUCTORS,
        "np.where(edge, 1.0, u)",
        "np.where(edge, 0.0, u)",
        CONSTRUCTOR_TESTS,
    ),
    Mutant(
        "log-e-uncapped-t-squared",
        CONSTRUCTORS,
        "np.minimum(tsq, _FLOAT_MAX) / 2.0",
        "tsq / 2.0",
        CONSTRUCTOR_TESTS,
    ),
    Mutant(
        "log-e-uncapped-g",
        CONSTRUCTORS,
        "g = np.minimum(gamma / np.asarray(model.var_factor, dtype=float), _FLOAT_MAX)",
        "g = gamma / np.asarray(model.var_factor, dtype=float)",
        CONSTRUCTOR_TESTS,
    ),
    # the step-up kernel rejects every statistic tied with s_(k*)
    Mutant(
        "step-up-strict",
        "epmt/procedures.py",
        "mask = stat <= ranked[ok[-1]]",
        "mask = stat < ranked[ok[-1]]",
        ("tests/test_procedures.py", "tests/golden"),
    ),
    # e-BH passes k at k e_[k] / K = 1 / alpha exactly
    Mutant(
        "e-bh-strict",
        "epmt/procedures.py",
        "return ranks * -ranked / k_total >= 1.0 / alpha",
        "return ranks * -ranked / k_total > 1.0 / alpha",
        ("tests/test_procedures.py",),
    ),
    # RFC 4180 doubles a quote inside a quoted cell
    Mutant(
        "csv-quote-not-doubled",
        TABLE,
        """'"' + cell.replace('"', '""') + '"'""",
        """'"' + cell + '"'""",
        ("tests/test_cli.py", "tests/golden"),
    ),
    # the CSV reader: csv.reader's errors name the row counted over the whole file
    Mutant(
        "reader-csv-row-offset-dropped",
        TABLE,
        "_fail(path, (rows + len(flat) // n, str(exc)))",
        "_fail(path, (len(flat) // n, str(exc)))",
        TABLE_TESTS,
    ),
    # a block whose lines hold different field counts is cut at its commas
    Mutant(
        "reader-split-field-guard",
        TABLE,
        "commas != {n - 1}",
        "n - 1 not in commas",
        (*TABLE_TESTS, "tests/golden"),
    ),
    # a CRLF split between two reads counts as two breaks
    Mutant(
        "undecodable-crlf-across-reads",
        TABLE,
        '            breaks -= after_cr and chunk.startswith(b"\\n")\n',
        "",
        TABLE_TESTS,
    ),
    # a block's cells stay alive, in the loop or in the reader, while the next is read
    Mutant(
        "loader-keeps-each-block",
        TABLE,
        "                del flat\n",
        "",
        TABLE_TESTS,
    ),
    Mutant(
        "reader-keeps-each-block",
        TABLE,
        "        flat = None\n",
        "",
        TABLE_TESTS,
    ),
    # Storey's null-proportion estimate counts the p-values above tau
    Mutant("storey-pi0-at-tau", PROCEDURES, "int((p > tau).sum())", "int((p >= tau).sum())", PROCEDURE_TESTS),
    # the normalized weights average 1
    Mutant("normalized-weights-unscaled", PROCEDURES, "return e.size * e / total", "return e / total", PROCEDURE_TESTS),
    Mutant(
        "ep-bonferroni-alpha-not-over-k",
        PROCEDURES,
        "adjusted <= alpha / p.size",
        "adjusted <= alpha",
        PROCEDURE_TESTS,
    ),
    # h(p) = kappa * p**(kappa - 1)
    Mutant(
        "kappa-calibrator-no-kappa",
        "epmt/calib.py",
        "self.kappa * arr ** (self.kappa - 1.0)",
        "arr ** (self.kappa - 1.0)",
        ("tests/test_calib.py",),
    ),
    Mutant(
        "chisq-lr-quarter-ncp",
        CONSTRUCTORS,
        "math.exp(-ncp / 2.0) * special.hyp0f1",
        "math.exp(-ncp / 4.0) * special.hyp0f1",
        CONSTRUCTOR_TESTS,
    ),
    # the posterior variance weighs the prior by its degrees of freedom
    Mutant(
        "moderated-t-no-prior-df-weight",
        CONSTRUCTORS,
        "(model.df_prior * model.s2_prior + df * s_sq)",
        "(model.s2_prior + df * s_sq)",
        CONSTRUCTOR_TESTS,
    ),
    # fit_gamma's strict >: a point that only ties the best score so far, or
    # the null-only model's 0, does not win
    Mutant("fit-gamma-tie-takes-later", CONSTRUCTORS, "score > best_score", "score >= best_score", CONSTRUCTOR_TESTS),
    Mutant(
        "child-rng-keys-swapped",
        SIM,
        "int(scenario_index), int(replicate_index)",
        "int(replicate_index), int(scenario_index)",
        SIM_TESTS,
    ),
    # the FDP divides by the rejections; the standard error by n - 1
    Mutant("fdp-over-all-hypotheses", "epmt/core.py", "n_false / n_rej", "n_false / truth.size", CORE_TESTS),
    Mutant("aggregate-se-ddof-0", SIM, "column.std(ddof=1)", "column.std(ddof=0)", SIM_TESTS),
    # the writer: separators, the header check, the float kernel, bool columns
    Mutant("writer-semicolon", TABLE, 'b",".join', 'b";".join', TABLE_TESTS),
    Mutant(
        "header-first-column-only",
        TABLE,
        "if [h.strip() for h in header] != list(columns):",
        "if header[0].strip() != columns[0]:",
        (*TABLE_TESTS, "tests/golden"),
    ),
    Mutant("float-kernel-no-tie-fallback", TABLE, "edge16 | tie", "edge16", PROPERTY_TESTS),
    Mutant(
        "float-kernel-no-decade-correction",
        TABLE,
        "k[moved] += np.where(under[moved], 1, -1)",
        "k[moved] += 0",
        PROPERTY_TESTS,
    ),
    # the empty-p refusal reads the p column
    Mutant("empty-p-check-column", TABLE, "np.isnan(loaded[1])", "np.isnan(loaded[2])", TABLE_TESTS),
    Mutant("bool-column-swapped", TABLE, 'b"1", b"0"', 'b"0", b"1"', (*TABLE_TESTS, "tests/golden")),
    # the pool: worker s runs items s, s + P, ..., its outcomes go back to
    # the same positions, and no worker outlives the call
    Mutant("pool-worker-runs-the-next-share", SIM, "items[share::workers]", "items[(share + 1) % workers :: workers]", SIM_TESTS),
    Mutant(
        "pool-merge-into-the-next-share",
        SIM,
        "done[share::workers] = pickle.loads(sent)",
        "done[(share + 1) % workers :: workers] = pickle.loads(sent)",
        SIM_TESTS,
    ),
    Mutant(
        "pool-leaves-workers-unreaped",
        SIM,
        "            os.kill(pid, signal.SIGKILL)\n            os.waitpid(pid, 0)\n",
        "",
        SIM_TESTS,
    ),
    # the command runs without the cyclic collector and freezes it before exit
    Mutant("entry-keeps-the-collector", "epmt/cli.py", "    gc.disable()\n", "", ("tests/test_cli.py",)),
    Mutant("entry-no-freeze", "epmt/cli.py", "    gc.freeze()\n", "", ("tests/test_cli.py",)),
]


def apply(src: Path, mutant: Mutant):
    """Replace the mutant's old text with its new text in the copy at src."""
    path = src / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """"killed", "SURVIVED" or "ERROR: ..." for one mutant."""
    with tempfile.TemporaryDirectory(prefix="epmt-mutant-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            apply(src, mutant)
        except ValueError as error:
            return f"ERROR: {error}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.selection]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exit code {done.returncode}"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{outcome:10s} {mutant.name} ({time.perf_counter() - start:.1f} s: {' '.join(mutant.selection)})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
