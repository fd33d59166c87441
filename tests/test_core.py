"""Tests for validation, rejection results and error accounting."""

import numpy as np
import pytest

from epmt.core import (
    EmptyInput,
    ErrorMetrics,
    LengthMismatch,
    MalformedValue,
    RejectionResult,
    as_evector,
    as_pair,
    as_pvector,
    fdp_and_power,
)


def test_check_pvalue_accepts_boundaries():
    assert as_pvector([0.0, 1.0, 0.5]).tolist() == [0.0, 1.0, 0.5]
    for value in (0.0, 1.0, 0.5):
        assert as_pvector(value).tolist() == [value]


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, float("inf")])
def test_check_pvalue_rejects(bad):
    with pytest.raises(MalformedValue):
        as_pvector(bad)
    with pytest.raises(MalformedValue):
        as_pvector([0.5, bad])


def test_check_evalue_allows_infinity():
    arr = as_evector([0.0, np.inf, 3.5])
    assert arr[0] == 0.0 and np.isinf(arr[1]) and arr[2] == 3.5
    assert np.isinf(as_evector(np.inf)).all()


@pytest.mark.parametrize("bad", [-1e-9, np.nan])
def test_check_evalue_rejects(bad):
    with pytest.raises(MalformedValue):
        as_evector(bad)
    with pytest.raises(MalformedValue):
        as_evector([2.0, bad])


def test_malformed_value_carries_record_id():
    # the record id is the position of the first refused value
    with pytest.raises(MalformedValue) as info:
        as_pvector([0.2, 0.4, 2.0, -1.0])
    assert info.value.record_id == 2
    with pytest.raises(MalformedValue) as info:
        as_evector(-1.0)
    assert info.value.record_id == 0


def test_as_pvector_reports_position():
    with pytest.raises(MalformedValue) as info:
        as_pvector([0.1, 0.2, 1.3])
    assert "position 2" in str(info.value)


def mask_refusal(values, kind, upper, interval):
    """The refusal of a vector checked the mask way: every value is
    compared, and the first failing position is named."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    bad = ~((arr >= 0.0) & (arr <= upper))
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return f"{kind}-value out of {interval} at position {i}: {arr[i]!r}", i


@pytest.mark.parametrize("bad", [np.nan, -0.5, -5e-324, 1.0000000000000002, 7.0, -np.inf, np.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_vector_checks_refuse_as_the_mask_does(bad, where):
    """as_pvector and as_evector check the range by a min and a max; a
    refusal has the message and record id of the full mask's first
    failing position, and -0.0 and e = +inf pass."""
    checks = ((as_pvector, "p", 1.0, "[0, 1]"), (as_evector, "e", np.inf, "[0, +inf]"))
    values = [0.5, -0.0, 1.0, 0.25, 0.0, 1.0, 0.75]
    values[where] = bad
    # the value alone, then after or before a second bad value
    for case in (values, values + [np.nan], [-2.0] + values):
        for check, kind, upper, interval in checks:
            want = mask_refusal(case, kind, upper, interval)
            if want is None:
                assert check(case).tobytes() == np.asarray(case, dtype=float).tobytes()
                continue
            with pytest.raises(MalformedValue) as info:
                check(case)
            assert (str(info.value), info.value.record_id) == want


def test_as_pvector_rejects_matrix():
    with pytest.raises(MalformedValue):
        as_pvector([[0.1, 0.2], [0.3, 0.4]])


def test_as_evector_scalar_promotes_to_vector():
    arr = as_evector(2.0)
    assert arr.shape == (1,)


def test_as_vectors_reject_empty():
    with pytest.raises(EmptyInput):
        as_pvector([])
    with pytest.raises(EmptyInput):
        as_evector([])


def test_as_pair_refuses_a_length_mismatch():
    p, e = as_pair(np.zeros(4), np.ones(4))
    assert p.size == e.size == 4
    with pytest.raises(LengthMismatch, match=r"disagree in length: \[3, 4\]"):
        as_pair(np.zeros(4), np.ones(3))


def test_rejection_result_consistency_enforced():
    # k* and the rejected set are both read off the mask, so they cannot disagree
    r = RejectionResult(np.array([True, False, True, False]), np.zeros(4))
    assert r.threshold_index == len(r.rejected) == 2
    assert r.rejected == frozenset({0, 2})
    none = RejectionResult(np.zeros(3, dtype=bool), np.zeros(3))
    assert none.threshold_index == 0 and none.rejected == frozenset()


def test_fdp_and_power_basic():
    truth = np.array([True, True, False, False])  # 2 nulls, 2 non-nulls
    fdp, power, n_false = fdp_and_power(np.array([True, False, True, True]), truth)
    assert fdp == pytest.approx(1.0 / 3.0)
    assert power == pytest.approx(1.0)
    assert n_false == 1


def test_fdp_and_power_zero_conventions():
    truth = np.array([True, True])
    fdp, power, n_false = fdp_and_power(np.array([False, False]), truth)
    assert fdp == 0.0  # no rejections -> FDP 0
    assert power == 0.0  # no non-nulls -> power 0
    assert n_false == 0
    fdp, power, n_false = fdp_and_power(np.array([True, False]), truth)
    assert fdp == 1.0 and power == 0.0 and n_false == 1


def test_fdp_and_power_range_checked():
    # a mask must cover exactly the hypotheses the truth vector flags
    with pytest.raises(LengthMismatch):
        fdp_and_power(np.array([False, False, True]), np.array([True, False]))
    with pytest.raises(LengthMismatch):
        fdp_and_power(np.array([True]), np.array([True, False]))
    # an index list is not a mask, even when its length matches truth
    with pytest.raises(TypeError):
        fdp_and_power([0, 1], np.array([True, False]))


def test_error_metrics_is_frozen():
    m = ErrorMetrics(0.1, 0.5, 0.2, 0.3, 0.01, 0.02, 0.01, 0.02, 100)
    with pytest.raises(AttributeError):
        m.fdr = 0.2

