"""Tests for the step-up procedures and the procedure registry."""

import numpy as np
import pytest

from epmt.calib import power_calibrator, sqrt_calibrator
from epmt.core import EmptyInput, LengthMismatch, MalformedValue
from epmt.procedures import (
    REGISTRY,
    ProcedureSpec,
    SingleHypothesis,
    adaptive_e_bh,
    e_bh,
    ep_bh,
    ep_bonferroni,
    ep_storey,
    harmonic_number,
    normalized_weights,
    p_bh,
    pe_bh,
    simes_evalue,
    storey_pi0,
    wbh_storey_normalized,
    weighted_p_bh,
    weighted_p_bh_normalized,
)
from epmt.sim import TTestScenario, generate_replicate

ALL_CALIBRATORS = [
    sqrt_calibrator(),
    power_calibrator(0.2),
    power_calibrator(0.5),
    power_calibrator(0.8),
]


def random_instance(rng):
    """A random (p, e) pair with a sprinkling of signal and edge values."""
    k = int(rng.integers(1, 51))
    p = rng.random(k)
    signal = rng.random(k) < 0.3
    p[signal] = p[signal] * 0.05
    e = sqrt_calibrator()(rng.random(k))
    if rng.random() < 0.1 and k > 1:
        p[0] = 0.0
    if rng.random() < 0.1:
        e[-1] = 0.0
    return p, e


# ---------------------------------------------------------------- p-BH


def test_p_bh_known_case():
    r = p_bh([0.01, 0.02, 0.40, 0.90], 0.05)
    assert sorted(r.rejected) == [0, 1]
    assert r.threshold_index == 2
    np.testing.assert_array_equal(r.adjusted, [0.01, 0.02, 0.40, 0.90])


def test_p_bh_boundary_equality_rejects():
    # K * p_(k) / k == alpha counts as a rejection
    r = p_bh([0.05, 0.9], 0.1)
    assert sorted(r.rejected) == [0]


def test_p_bh_ties_at_threshold_all_rejected():
    r = p_bh([0.01, 0.025, 0.025, 0.9], 0.1)
    assert sorted(r.rejected) == [0, 1, 2]
    assert r.threshold_index == 3


def test_p_bh_no_rejections():
    r = p_bh([0.9, 0.8, 0.7], 0.05)
    assert r.rejected == frozenset()
    assert r.threshold_index == 0


def test_harmonic_number():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(4) == pytest.approx(25.0 / 12.0, rel=1e-15)


def test_p_bh_by_correction_oracle():
    # alpha / H(4) = 0.05 / (25/12) = 0.024
    assert p_bh([0.01, 0.02, 0.40, 0.90], 0.05, by_correction=True).rejected == frozenset()
    r = p_bh([0.005, 0.02, 0.40, 0.90], 0.05, by_correction=True)
    assert sorted(r.rejected) == [0]


def test_p_bh_alpha_monotone():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p, _ = random_instance(rng)
        lo = p_bh(p, 0.02).rejected
        hi = p_bh(p, 0.2).rejected
        assert lo <= hi


def test_p_bh_input_validation():
    with pytest.raises(EmptyInput):
        p_bh([], 0.1)
    with pytest.raises(MalformedValue):
        p_bh([0.1, 1.2], 0.1)
    with pytest.raises(ValueError):
        p_bh([0.1], 0.0)


# ---------------------------------------------------------------- e-BH


def test_e_bh_known_case():
    r = e_bh([40.0, 20.0, 10.0, 1.0], 0.1)
    assert sorted(r.rejected) == [0, 1]
    assert r.threshold_index == 2


def test_e_bh_boundary_equality_rejects():
    # k * e_[k] / K = 1 * 20 / 2 = 10 = 1/alpha exactly
    r = e_bh([20.0, 1.0], 0.1)
    assert sorted(r.rejected) == [0]


def test_e_bh_handles_infinite_evalues():
    r = e_bh([np.inf, np.inf, 0.5], 0.05)
    assert sorted(r.rejected) == [0, 1]


def test_e_bh_equals_p_bh_on_reciprocals():
    """e-BH at level alpha is p-BH on min(1/e, 1) at the same level."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        _, e = random_instance(rng)
        alpha = float(rng.uniform(0.01, 0.4))
        with np.errstate(divide="ignore"):
            recip = np.minimum(np.where(e > 0, 1.0 / e, np.inf), 1.0)
        assert e_bh(e, alpha).rejected == p_bh(recip, alpha).rejected


def test_e_bh_monotone_in_scale():
    rng = np.random.default_rng(12)
    for _ in range(300):
        _, e = random_instance(rng)
        base = e_bh(e, 0.1).rejected
        scaled = e_bh(3.0 * e, 0.1).rejected
        assert base <= scaled


# ---------------------------------------------------------------- weighted BH


def test_weighted_p_bh_known_case():
    r = weighted_p_bh([0.1, 0.2, 0.8], [4.0, 1.0, 0.0], 0.1)
    assert sorted(r.rejected) == [0]
    np.testing.assert_allclose(r.adjusted, [0.025, 0.2, 1.0])


def test_weighted_p_bh_zero_over_zero():
    r = weighted_p_bh([0.0, 0.5], [0.0, 1.0], 0.05)
    assert sorted(r.rejected) == [0]
    assert r.adjusted[0] == 0.0


def test_weighted_p_bh_unit_weights_match_plain():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p, _ = random_instance(rng)
        assert weighted_p_bh(p, np.ones_like(p), 0.1).rejected == p_bh(p, 0.1).rejected


def test_normalized_weights():
    np.testing.assert_allclose(normalized_weights([2.0, 1.0, 1.0]), [1.5, 0.75, 0.75])
    np.testing.assert_array_equal(normalized_weights([0.0, 0.0]), [0.0, 0.0])
    w = normalized_weights([np.inf, 3.0, np.inf])
    assert np.isinf(w[0]) and w[1] == 0.0 and np.isinf(w[2])


def test_normalized_weights_sum_to_k():
    rng = np.random.default_rng(31)
    for _ in range(100):
        _, e = random_instance(rng)
        w = normalized_weights(e)
        if np.isfinite(w).all() and w.sum() > 0:
            assert w.sum() == pytest.approx(len(w))


def test_weighted_p_bh_normalized_scale_invariant():
    p = np.array([0.001, 0.02, 0.3, 0.6])
    e = np.array([5.0, 2.0, 1.0, 0.1])
    a = weighted_p_bh_normalized(p, e, 0.1).rejected
    b = weighted_p_bh_normalized(p, 100.0 * e, 0.1).rejected
    assert a == b


def test_normalized_weights_survive_an_overflowing_sum():
    np.testing.assert_allclose(normalized_weights([1e308, 1.0]), [2.0, 2e-308], rtol=1e-15)
    # equal weights reduce both normalized procedures to p-BH here
    p, e = [0.001, 0.2], [1e308, 1e308]
    want = p_bh(p, 0.1)
    for procedure in (weighted_p_bh_normalized, wbh_storey_normalized):
        got = procedure(p, e, 0.1)
        np.testing.assert_array_equal(got.mask, want.mask)
        np.testing.assert_array_equal(got.adjusted, want.adjusted)


# ---------------------------------------------------------------- ep-BH / pe-BH


def test_ep_bh_is_weighted_bh_with_raw_weights():
    rng = np.random.default_rng(41)
    for _ in range(300):
        p, e = random_instance(rng)
        alpha = float(rng.uniform(0.01, 0.4))
        a = ep_bh(p, e, alpha)
        b = weighted_p_bh(p, e, alpha)
        assert a.rejected == b.rejected
        np.testing.assert_array_equal(a.adjusted, b.adjusted)


def _bh_reference(q, alpha):
    """Textbook BH: adjusted values K q_(j) / j, made monotone from the top."""
    k = q.size
    order = np.argsort(q)
    adjusted = np.minimum.accumulate((k * q[order] / np.arange(1, k + 1))[::-1])[::-1]
    return frozenset(order[adjusted <= alpha].tolist())


@pytest.mark.parametrize("effect", [1.5, 2.0, 2.5])
def test_weighted_p_bh_normalized_matches_reference_and_sits_inside_ep_bh(effect):
    """Normalized wBH against an independent step-up, on the t-test scenario.

    The reference rescales e to K e / sum(e) by hand and runs the textbook
    adjusted-p-value form of BH on min(p / w, 1). Whenever mean(e) >= 1 the
    raw weights e are pointwise >= the normalized ones e / mean(e), and the
    step-up is monotone in the weights, so ep-BH must reject a superset.
    """
    alpha = 0.1
    rng = np.random.default_rng(7070 + int(10 * effect))
    nested = 0
    rejections = 0
    for _ in range(40):
        p, e, _ = generate_replicate(TTestScenario(effect=effect), rng)
        w = p.size * e / e.sum()
        q = np.minimum(p / w, 1.0)
        wbh = weighted_p_bh_normalized(p, e, alpha)
        np.testing.assert_allclose(wbh.adjusted, q, rtol=1e-12)
        assert wbh.rejected == _bh_reference(q, alpha)
        rejections += len(wbh.rejected)
        if e.mean() >= 1.0:
            assert wbh.rejected <= ep_bh(p, e, alpha).rejected
            nested += 1
    assert nested > 0 and rejections > 0


def test_ep_bh_adjusted_is_capped_quotient():
    r = ep_bh([0.3, 0.5], [10.0, 0.1], 0.1)
    np.testing.assert_allclose(r.adjusted, [0.03, 1.0])


def test_pe_bh_known_case():
    r = pe_bh([1e-4, 0.5], [1.0, 1.0], 0.1)
    assert sorted(r.rejected) == [0]
    assert r.adjusted[0] == pytest.approx(99.0)


@pytest.mark.parametrize("cal", ALL_CALIBRATORS, ids=lambda c: c.label())
def test_pe_bh_subset_of_ep_bh(cal):
    """pe-BH never rejects a hypothesis that ep-BH keeps."""
    rng = np.random.default_rng(abs(hash(cal.label())) % 2**32)
    for _ in range(1000):
        p, e = random_instance(rng)
        alpha = float(rng.uniform(0.01, 0.4))
        assert pe_bh(p, e, alpha, cal).rejected <= ep_bh(p, e, alpha).rejected


def test_ep_bh_alpha_monotone():
    rng = np.random.default_rng(51)
    for _ in range(300):
        p, e = random_instance(rng)
        assert ep_bh(p, e, 0.02).rejected <= ep_bh(p, e, 0.2).rejected


# ---------------------------------------------------------------- Storey variants


def test_storey_pi0_oracle():
    assert storey_pi0([0.01, 0.02, 0.6, 0.7, 0.8], 0.5) == pytest.approx(1.6)
    with pytest.raises(ValueError):
        storey_pi0([0.1], 0.0)
    with pytest.raises(ValueError):
        storey_pi0([0.1], 1.0)


def test_ep_storey_known_case():
    p = [0.01, 0.02, 0.6, 0.7, 0.8]
    e = [2.0, 1.0, 1.0, 1.0, 1.0]
    r = ep_storey(p, e, 0.25, tau=0.5)
    assert sorted(r.rejected) == [0, 1]
    np.testing.assert_allclose(r.adjusted, [0.008, 0.032, 1.0, 1.0, 1.0])


def test_ep_storey_zeroes_out_large_p():
    # a hypothesis with p > tau is never rejected, whatever its e-value
    r = ep_storey([0.9, 0.001], [1e6, 1.0], 0.1, tau=0.5)
    assert 0 not in r.rejected


def test_wbh_storey_normalized_known_case():
    p = [0.01, 0.02, 0.6, 0.7, 0.8]
    e = [2.0, 1.0, 1.0, 1.0, 1.0]
    # normalized weights 5e/6 = [5/3, 5/6, 5/6, 5/6, 5/6]; the three p > tau
    # rows carry weight 2.5 total, so weighted pi0 = (1 + 2.5) / 2.5 = 1.4
    r = wbh_storey_normalized(p, e, 0.25, tau=0.5)
    assert sorted(r.rejected) == [0, 1]
    w0 = 5.0 * 2.0 / 6.0
    expected0 = 0.01 / (w0 / 1.4)
    assert r.adjusted[0] == pytest.approx(expected0)


def test_wbh_storey_normalized_all_infinite_weights():
    # every unit of weight sits on the infinite e-values; pi0 keeps only
    # its smoothing term and the finite-e hypotheses get weight 0
    r = wbh_storey_normalized([0.01, 0.02, 0.9], [np.inf, np.inf, 1.0], 0.1)
    assert sorted(r.rejected) == [0, 1]


# ---------------------------------------------------------------- ep-Bonferroni


def test_ep_bonferroni_known_case():
    r = ep_bonferroni([0.001, 0.5], [10.0, 1.0], 0.05)
    assert sorted(r.rejected) == [0]
    np.testing.assert_allclose(r.adjusted, [1e-4, 0.5])  # uncapped quotient


def test_ep_bonferroni_boundary():
    # p/e = 0.05 / 1 = alpha / K with K = 1: equality rejects
    r = ep_bonferroni([0.05], [1.0], 0.05)
    assert sorted(r.rejected) == [0]


def test_ep_bonferroni_subset_of_ep_bh():
    rng = np.random.default_rng(61)
    for _ in range(300):
        p, e = random_instance(rng)
        assert ep_bonferroni(p, e, 0.1).rejected <= ep_bh(p, e, 0.1).rejected


# ---------------------------------------------------------------- adaptive e-BH


def test_simes_evalue_oracle():
    assert simes_evalue([40.0, 20.0, 10.0, 1.0]) == pytest.approx(10.0)
    assert simes_evalue([0.5]) == pytest.approx(0.5)


def test_adaptive_e_bh_gate_blocks():
    r = adaptive_e_bh([2.0, 2.0], 0.1)  # mean 2 < 1/alpha = 10
    assert r.rejected == frozenset()
    assert r.threshold_index == 0


def test_adaptive_e_bh_knife_edge_superset():
    # e-BH stops at k*=2; the boosted level K*alpha/(K-1) lets k=3 through
    e = [40.0, 20.0, 10.0, 1.0]
    plain = e_bh(e, 0.1)
    boosted = adaptive_e_bh(e, 0.1, merging="mean")
    assert sorted(plain.rejected) == [0, 1]
    assert sorted(boosted.rejected) == [0, 1, 2]


def test_adaptive_e_bh_dominates_e_bh():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        _, e = random_instance(rng)
        if len(e) == 1:
            continue
        alpha = float(rng.uniform(0.01, 0.4))
        assert e_bh(e, alpha).rejected <= adaptive_e_bh(e, alpha, merging="mean").rejected


def test_adaptive_e_bh_max_merging_gate():
    # simes = max(k e_[k] / K): [12, 1] -> max(6, 1) = 6 < 10 blocks;
    # mean = 6.5 < 10 blocks too; at alpha=0.2 simes gate opens
    e = [12.0, 1.0]
    assert adaptive_e_bh(e, 0.1, merging="max").rejected == frozenset()
    r = adaptive_e_bh(e, 0.2, merging="max")
    assert sorted(r.rejected) == [0]


def test_adaptive_e_bh_single_hypothesis_warns():
    with pytest.warns(SingleHypothesis):
        r = adaptive_e_bh([30.0], 0.1)
    assert sorted(r.rejected) == [0]  # falls back to plain e-BH: 30 >= 10


def test_adaptive_e_bh_rejects_bad_merging():
    with pytest.raises(ValueError):
        adaptive_e_bh([1.0, 2.0], 0.1, merging="median")


# ---------------------------------------------------------------- registry


def test_registry_names():
    assert set(REGISTRY) == {
        "p-bh",
        "p-bh-by",
        "e-bh",
        "wbh-normalized",
        "ep-bh",
        "pe-bh",
        "ep-storey",
        "wbh-storey-normalized",
        "ep-bonferroni",
        "adaptive-e-bh",
    }


def test_procedure_spec_validation():
    with pytest.raises(KeyError):
        ProcedureSpec("bh-plus")
    with pytest.raises(ValueError):
        ProcedureSpec("p-bh", alpha=0.0)
    with pytest.raises(ValueError):
        ProcedureSpec("p-bh", alpha=1.0)
    with pytest.raises(ValueError):
        ProcedureSpec("ep-storey", tau=1.0)
    with pytest.raises(ValueError):
        ProcedureSpec("adaptive-e-bh", merging="geometric")


def test_procedure_spec_build_matches_direct_call():
    rng = np.random.default_rng(81)
    p, e = random_instance(rng)
    spec = ProcedureSpec("ep-storey", alpha=0.2, tau=0.4)
    assert spec.build()(p, e).rejected == ep_storey(p, e, 0.2, tau=0.4).rejected
    spec = ProcedureSpec("pe-bh", alpha=0.2, calibrator="kappa:0.5")
    direct = pe_bh(p, e, 0.2, power_calibrator(0.5))
    assert spec.build()(p, e).rejected == direct.rejected


def test_procedure_spec_needs_flags():
    assert ProcedureSpec("p-bh").needs_p and not ProcedureSpec("p-bh").needs_e
    assert not ProcedureSpec("e-bh").needs_p and ProcedureSpec("e-bh").needs_e
    assert ProcedureSpec("ep-bh").needs_p and ProcedureSpec("ep-bh").needs_e


def test_length_mismatch_raised():
    with pytest.raises(LengthMismatch):
        ep_bh([0.1, 0.2], [1.0], 0.1)
    with pytest.raises(LengthMismatch):
        weighted_p_bh([0.1], [1.0, 2.0], 0.1)
