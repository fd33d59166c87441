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
        "epmt/table.py",
        """'"' + cell.replace('"', '""') + '"'""",
        """'"' + cell + '"'""",
        ("tests/test_cli.py", "tests/golden"),
    ),
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
