"""The mutant list of tools/mutants.py still applies to the source.

Running the mutants takes pytest runs of its own (python tools/mutants.py);
here each mutant is only checked to apply: its old text occurs exactly
once in its file, so an edit that moves or changes a mutated line shows
up here rather than as a mutant the runner refuses.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[mutant.name for mutant in mutants.MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / "src" / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    for selection in mutant.selection:
        assert (ROOT / selection).exists(), selection


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_apply_refuses_an_old_text_that_does_not_occur_once(tmp_path):
    (tmp_path / "twice.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    for text in ("x = 1", "y = 2"):
        with pytest.raises(ValueError, match="not once"):
            mutants.apply(tmp_path, mutants.Mutant("m", "twice.py", text, "x = 3", ()))
    mutants.apply(tmp_path, mutants.Mutant("m", "twice.py", "x = 1\nx = 1", "x = 3", ()))
    assert (tmp_path / "twice.py").read_text(encoding="utf-8") == "x = 3\n"
