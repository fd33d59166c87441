"""Fast checks of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest

import run
from workloads import (
    ADJUST_PROCEDURES,
    ALPHA,
    WORKLOADS,
    check_adjust_output,
    check_identical,
    make_adjust_input,
    mixed_config,
    reference_bracket,
    ttest_config,
    write_adjust_csv,
)

sys.path.insert(0, str(run.SRC))

from epmt import cli  # noqa: E402
from epmt.procedures import ProcedureSpec  # noqa: E402

TINY = {
    "adjust-large": replace(WORKLOADS["adjust-large"], rows=400),
    "simulate-ttest": replace(WORKLOADS["simulate-ttest"], config=ttest_config(200), reps=4),
    "simulate-mixed-par2": replace(WORKLOADS["simulate-mixed-par2"], config=mixed_config(200), reps=2),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ADJUST_PROCEDURES)
def test_reference_agrees_with_package(name, seed):
    data = make_adjust_input(seed, 400)
    assert np.isinf(data.e).any() and (data.p == 0.0).any() and data.e_empty.any()
    must, may = reference_bracket(name, data.p, data.e)
    result = ProcedureSpec(name, alpha=ALPHA).build()(data.p, data.e)
    rejected = np.zeros(data.p.size, dtype=bool)
    rejected[list(result.rejected)] = True
    assert must.sum() > 0
    assert not (must & ~rejected).any()
    assert not (rejected & ~may).any()


def test_spans_nest_and_self_times_add_up(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setattr(run, "POOL_PROBES", 1)
    tally = run.Tally()
    metrics, tables, _, tracers = run.traced_pass(TINY, seed=3, work=tmp_path, tally=tally)
    assert tally.failures == []
    assert metrics["cli.rows"][0] == 400
    assert metrics["core.fdp_and_power_calls"][0] == 4 * 10
    for name, tracer in tracers.items():
        assert tracer.spans, name
        for span in tracer.spans:
            assert span.self_time >= 0.0, span.name
            if span.parent is not None:
                parent = tracer.spans[span.parent]
                assert parent.start <= span.start <= span.end <= parent.end, span.name
        rows = tables[name]
        assert rows[-1][0] == "residual" and rows[-1][1] >= 0.0
        total = sum(seconds for _, seconds, _ in rows)
        assert sum(share for _, _, share in rows) == pytest.approx(1.0)
        assert total > 0.0


def _adjust_output(tmp_path):
    data = make_adjust_input(7, 400)
    input_csv, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_adjust_csv(str(input_csv), data)
    argv = ["adjust", "--input", str(input_csv), "--procedure", "pe-bh", "--alpha", repr(ALPHA), "--out", str(out)]
    assert cli.main(argv) == 0
    bracket = reference_bracket("pe-bh", data.p, data.e)
    return data, out, tmp_path / "out.json", bracket


def test_corrupted_adjust_output_counts_as_failed(tmp_path):
    data, out, summary, bracket = _adjust_output(tmp_path)
    tally = run.Tally()
    assert tally.record("intact", check_adjust_output(str(out), str(summary), data, "pe-bh", bracket))
    lines = out.read_text().splitlines(keepends=True)
    flipped = lines[:]
    row = next(i for i, line in enumerate(lines) if line.endswith(",1\n"))
    flipped[row] = lines[row][:-2] + "0\n"
    out.write_text("".join(flipped))
    assert not tally.record("flipped", check_adjust_output(str(out), str(summary), data, "pe-bh", bracket))
    digits = lines[:]
    fields = digits[1].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-12))
    digits[1] = ",".join(fields)
    out.write_text("".join(digits))
    assert not tally.record("p digit", check_adjust_output(str(out), str(summary), data, "pe-bh", bracket))
    assert tally.attempted == 3 and tally.failed == 2


def test_corrupted_campaign_output_counts_as_failed(tmp_path):
    reference = b"scenario,procedure\nttest-0,p-bh\n"
    produced = tmp_path / "out.csv"
    produced.write_bytes(reference)
    tally = run.Tally()
    assert tally.record("identical", check_identical(str(produced), reference))
    produced.write_bytes(reference.replace(b"p-bh", b"p-bH"))
    assert not tally.record("one byte", check_identical(str(produced), reference))
    assert tally.failed == 1


def test_low_half_mean_keeps_the_middle_sample():
    assert run.low_half_mean([5.0, 1.0, 3.0, 2.0, 4.0]) == 2.0
    assert run.low_half_mean([4.0, 1.0, 2.0, 3.0]) == 1.5
    assert run.low_half_mean([7.0]) == 7.0


def test_reference_job_copies_run_and_agree(tmp_path):
    wall, cpu, problems = run.run_reference(2, tmp_path)
    assert problems == []
    assert wall > 0.0 and cpu > 0.0
