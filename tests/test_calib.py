"""Tests for p/e calibrators and pairwise combiners."""

import numpy as np
import pytest
from scipy import integrate

from epmt.calib import (
    BadCalibrator,
    BadLambda,
    Calibrator,
    DEFAULT_CALIBRATOR,
    calibrate_e_to_p,
    combine_bonferroni,
    combine_mean,
    combine_product,
    combine_quotient,
    parse_calibrator,
)
from epmt.core import EmptyInput, LengthMismatch, MalformedValue

ALL_CALIBRATORS = [
    Calibrator("sqrt"),
    Calibrator("kappa", 0.2),
    Calibrator("kappa", 0.5),
    Calibrator("kappa", 0.8),
]
CALIBRATOR_IDS = ["sqrt", "kappa:0.2", "kappa:0.5", "kappa:0.8"]


def mass_below(cal, eps):
    """Exact integral of h over [0, eps], the analytic tail at the pole."""
    if cal.family == "sqrt":
        return 2.0 * np.sqrt(eps) - eps
    return eps ** cal.kappa


def test_sqrt_calibrator_closed_form():
    c = Calibrator("sqrt")
    assert c(0.25) == pytest.approx(1.0)  # 1/sqrt(0.25) - 1
    assert c(1.0) == 0.0
    assert np.isinf(c(0.0))
    assert c(0.01) == pytest.approx(9.0)


def test_power_calibrator_closed_form():
    assert Calibrator("kappa", 0.5)(0.04) == pytest.approx(2.5)  # 0.5 * 0.04**-0.5
    assert Calibrator("kappa", 0.2)(1.0) == pytest.approx(0.2)
    assert np.isinf(Calibrator("kappa", 0.8)(0.0))


def test_calibrator_vector_evaluation():
    c = Calibrator("sqrt")
    out = c(np.array([0.0, 0.25, 1.0]))
    assert np.isinf(out[0]) and out[1] == pytest.approx(1.0) and out[2] == 0.0


@pytest.mark.parametrize("kappa", [0.0, 1.0, -0.3, 1.5, np.nan])
def test_power_calibrator_domain(kappa):
    with pytest.raises(BadCalibrator):
        Calibrator("kappa", kappa)


def test_sqrt_family_takes_no_parameter():
    with pytest.raises(BadCalibrator):
        Calibrator("sqrt", kappa=0.5)
    with pytest.raises(BadCalibrator):
        Calibrator("cube")


def test_parse_calibrator():
    assert parse_calibrator("sqrt").family == "sqrt"
    c = parse_calibrator("kappa:0.3")
    assert c.family == "kappa" and c.kappa == 0.3
    with pytest.raises(BadCalibrator):
        parse_calibrator("kappa:x")
    with pytest.raises(BadCalibrator):
        parse_calibrator("nope")


@pytest.mark.parametrize("cal", ALL_CALIBRATORS, ids=CALIBRATOR_IDS)
def test_calibrator_unit_mass(cal):
    """Quadrature over [eps, 1] plus the analytic mass below eps equals 1."""
    eps = 1e-6
    body, quad_err = integrate.quad(cal, eps, 1.0, limit=200)
    total = body + mass_below(cal, eps)
    assert abs(total - 1.0) < 1e-8, f"{cal}: mass {total}"
    assert quad_err < 1e-7


@pytest.mark.parametrize("cal", ALL_CALIBRATORS, ids=CALIBRATOR_IDS)
def test_calibrator_decreasing_and_dominated(cal):
    grid = np.linspace(1e-6, 1.0, 2001)
    vals = cal(grid)
    assert (np.diff(vals) <= 0).all()
    # h(p) <= 1/p: needed so h(P) is an e-value even pointwise in the tail
    assert (vals <= 1.0 / grid + 1e-12).all()


@pytest.mark.parametrize("cal", ALL_CALIBRATORS, ids=CALIBRATOR_IDS)
def test_calibrated_uniform_is_evalue(cal):
    """Monte-Carlo mean of h(U) stays within 4 SE of its unit expectation."""
    rng = np.random.default_rng(1234)
    u = rng.random(200_000)
    vals = cal(u)
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(mean - 1.0) < 4.0 * se, f"{cal}: mean {mean} se {se}"


def test_calibrate_p_to_e_validates():
    """A calibrator is the one way to evaluate h(p), and it checks p first."""
    assert DEFAULT_CALIBRATOR(0.25) == pytest.approx(1.0)
    assert type(DEFAULT_CALIBRATOR(0.25)) is float
    for bad in (1.5, -0.5, np.nan, [0.5, 2.0], np.full((2, 2), 0.5)):
        with pytest.raises(MalformedValue):
            DEFAULT_CALIBRATOR(bad)
    with pytest.raises(EmptyInput):
        DEFAULT_CALIBRATOR([])
    out = Calibrator("kappa", 0.5)(np.array([0.04, 1.0]))
    np.testing.assert_allclose(out, [2.5, 0.5])


def test_calibrate_e_to_p_closed_form():
    np.testing.assert_allclose(
        calibrate_e_to_p(np.array([0.0, 0.5, 1.0, 4.0, np.inf])),
        [1.0, 1.0, 1.0, 0.25, 0.0],
    )
    assert calibrate_e_to_p(np.inf) == 0.0
    assert calibrate_e_to_p(0.0) == 1.0


def test_negative_zero_evalue_reads_as_zero():
    # -0.0 is a valid e-value; its reciprocal is -inf, which must not leak out
    assert calibrate_e_to_p(-0.0) == 1.0
    assert calibrate_e_to_p(np.array([-0.0, 2.0])).tolist() == [1.0, 0.5]
    assert combine_bonferroni(0.3, -0.0) == 0.6


def test_combine_product_conventions():
    assert combine_product(0.25, 3.0) == pytest.approx(3.0)  # h = 1
    assert np.isinf(combine_product(0.0, 0.0))  # inf * 0 = inf
    assert np.isinf(combine_product(1.0, np.inf))  # 0 * inf = inf
    out = combine_product(np.array([0.25, 1.0]), np.array([2.0, 5.0]))
    np.testing.assert_allclose(out, [2.0, 0.0])


def test_combine_quotient_conventions():
    assert combine_quotient(0.04, 2.0) == pytest.approx(0.02)
    assert combine_quotient(0.0, 0.0) == 0.0  # 0/0 = 0
    assert combine_quotient(0.5, 0.0) == 1.0  # capped
    assert combine_quotient(0.5, np.inf) == 0.0
    assert combine_quotient(0.9, 0.5) == 1.0


def test_combine_mean_closed_form():
    assert combine_mean(0.25, 3.0) == pytest.approx(2.0)  # 0.5*1 + 0.5*3
    assert combine_mean(0.25, 3.0, weight=0.25) == pytest.approx(0.25 + 2.25)
    with pytest.raises(BadLambda):
        combine_mean(0.25, 3.0, weight=0.0)
    with pytest.raises(BadLambda):
        combine_mean(0.25, 3.0, weight=1.0)


def test_combine_bonferroni_closed_form():
    assert combine_bonferroni(0.03, 100.0) == pytest.approx(0.02)
    assert combine_bonferroni(0.4, 1.0) == pytest.approx(0.8)
    assert combine_bonferroni(0.9, 0.5) == 1.0  # capped
    assert combine_bonferroni(0.0, 0.0) == 0.0


def test_combiners_valid_under_independent_nulls():
    """Product and mean keep null mean <= 1; quotient and bonferroni stay
    super-uniform, checked at a few thresholds."""
    rng = np.random.default_rng(77)
    n = 200_000
    p = rng.random(n)
    # independent null e-values with mean 1: calibrated from fresh uniforms
    e = Calibrator("sqrt")(rng.random(n))
    prod = combine_product(p, e)
    mean_c = combine_mean(p, e)
    for vals, label in ((prod, "product"), (mean_c, "mean")):
        m = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(n)
        assert m < 1.0 + 4.0 * se, f"{label}: null mean {m} (se {se})"
    quot = combine_quotient(p, e)
    bonf = combine_bonferroni(p, e)
    for vals, label in ((quot, "quotient"), (bonf, "bonferroni")):
        for t in (0.01, 0.05, 0.2):
            freq = (vals <= t).mean()
            se = np.sqrt(t * (1 - t) / n)
            assert freq <= t + 4.0 * se, f"{label} at {t}: {freq}"


def test_combiners_require_matching_lengths():
    with pytest.raises(LengthMismatch):
        combine_quotient(np.array([0.1, 0.2]), np.array([1.0]))


def test_default_calibrator_is_sqrt():
    assert DEFAULT_CALIBRATOR.family == "sqrt"
