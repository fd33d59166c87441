"""Tests for validation, rejection results, and error accounting."""

import numpy as np
import pytest

from epmt.core import (
    EmptyInput,
    ErrorMetrics,
    LengthMismatch,
    MalformedValue,
    RejectionResult,
    as_evector,
    as_pvector,
    check_evalue,
    check_pvalue,
    check_same_length,
    fdp_and_power,
)


def test_check_pvalue_accepts_boundaries():
    assert check_pvalue(0.0) == 0.0
    assert check_pvalue(1.0) == 1.0
    assert check_pvalue(0.5) == 0.5


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, float("inf")])
def test_check_pvalue_rejects(bad):
    with pytest.raises(MalformedValue):
        check_pvalue(bad)


def test_check_evalue_allows_infinity():
    assert check_evalue(0.0) == 0.0
    assert np.isinf(check_evalue(np.inf))
    assert check_evalue(3.5) == 3.5


@pytest.mark.parametrize("bad", [-1e-9, np.nan])
def test_check_evalue_rejects(bad):
    with pytest.raises(MalformedValue):
        check_evalue(bad)


def test_malformed_value_carries_record_id():
    with pytest.raises(MalformedValue) as info:
        check_pvalue(2.0, record_id="gene-7")
    assert info.value.record_id == "gene-7"


def test_as_pvector_reports_position():
    with pytest.raises(MalformedValue) as info:
        as_pvector([0.1, 0.2, 1.3])
    assert "position 2" in str(info.value)


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


def test_check_same_length():
    assert check_same_length(np.zeros(4), np.ones(4)) == 4
    with pytest.raises(LengthMismatch):
        check_same_length(np.zeros(4), np.ones(3))


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
