"""Same bytes: every case of the golden battery gives the exit code, stderr
and output digests recorded in expected.json.

The `moderate` and `simulate` digests rest on scipy's special functions
and numpy's Generator streams, so every failure names the versions the
file was recorded with and those running; a version mismatch fails, it
does not skip. regen.py, beside this file, rewrites expected.json.
"""

import json

import pytest
import regen

EXPECTED = json.loads(regen.EXPECTED.read_text(encoding="utf-8"))
VERSIONS = f"recorded with {EXPECTED['versions']}, running {regen.versions()}"


def test_recorded_versions_are_the_running_ones():
    assert EXPECTED["versions"] == regen.versions(), VERSIONS


def test_inputs_and_cases_are_the_recorded_ones():
    # an input rewritten on checkout (line endings, say) would move every digest
    inputs = {name: regen.sha256(regen.HERE / name) for name in regen.INPUTS}
    assert inputs == EXPECTED["inputs"], VERSIONS
    assert list(regen.CASES) == list(EXPECTED["cases"]), VERSIONS


@pytest.mark.parametrize("name", list(EXPECTED["cases"]))
def test_case_gives_the_recorded_bytes(name, tmp_path):
    assert regen.run_case(name, tmp_path) == EXPECTED["cases"][name], f"{name}: {VERSIONS}"
