"""Tests for the e-value constructors: soft-rank, moderated t, chi-square LR."""

import importlib.util
import json
import math
import warnings
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from epmt.calib import BadLambda, Calibrator, shift_evalue
from epmt.constructors import (
    GAMMA_GRID,
    ModeratedTModel,
    _gamma_scores,
    _log_evalue,
    _trigamma_inverse,
    chisq_lr_evalue,
    fit_gamma,
    fit_limma_hyperparameters,
    fit_moderated_model,
    moderated_t,
    moderated_t_evalue,
    moderated_t_pvalue,
    soft_rank_evalue,
)
from epmt.core import EmptyInput, MalformedValue


def laguerre_density_ratio(t, d, gamma_k, n_nodes=200):
    """Independent oracle for the moderated-t e-value.

    Uses the scale-mixture representation: t(d) has density
    E_{V~chisq(d)}[phi(t; 0, d/V)], and the random-effect alternative
    scales the variance by (1 + gamma_k). The chi-square expectation is
    evaluated by generalized Gauss-Laguerre quadrature (alpha = d/2 - 1,
    V = 2y), so no Student-t density formula is shared with the code
    under test.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        nodes, weights = special.roots_genlaguerre(n_nodes, d / 2.0 - 1.0)
    v = 2.0 * nodes
    norm = special.gamma(d / 2.0)

    def mixture(scale_sq):
        var = scale_sq * d / v
        dens = np.exp(-0.5 * t[:, None] ** 2 / var) / np.sqrt(2.0 * np.pi * var)
        return dens @ weights / norm

    return mixture(1.0 + gamma_k) / mixture(1.0)


REFERENCE = Path(__file__).resolve().parent / "reference"


def evalue_table() -> dict:
    """400-digit e-values, one row per (df_prior, df, gamma), made by
    tests/reference/evalue_table.py."""
    return json.loads((REFERENCE / "evalue_table.json").read_text(encoding="utf-8"))


def table_error(got: float, want: str) -> float:
    """got's distance from the reference want: in ulp of want's float for
    an e below 1e6, relative above; 0 where both are +inf."""
    if want == "inf" or not math.isfinite(got):
        return 0.0 if got == float(want) else math.inf
    ref = Decimal(want)
    scale = Decimal(np.spacing(float(ref))) if ref < 1_000_000 else ref
    return float(abs(Decimal(got) - ref) / scale)


def within_table_bounds(got: float, want: str) -> bool:
    """64 ulp below 1e6 and 1e-12 relative above, fixed with the table."""
    return table_error(got, want) <= (64.0 if want != "inf" and Decimal(want) < 1_000_000 else 1e-12)


# ---------------------------------------------------------------- soft rank


def test_soft_rank_linear_case():
    (e,), (p,) = soft_rank_evalue(2.0, [[0.0, 1.0]], 0.0)
    assert e == pytest.approx(2.0)
    assert p == pytest.approx(1.0 / 3.0)


def test_soft_rank_exponential_case():
    # r=1, original 1, resampled [0]: transformed [e-1, 0] -> E = 2, P = 1/2
    (e,), (p,) = soft_rank_evalue(1.0, [[0.0]], 1.0)
    assert e == pytest.approx(2.0)
    assert p == pytest.approx(0.5)


def test_soft_rank_all_equal_is_uninformative():
    (e,), (p,) = soft_rank_evalue(1.0, [[1.0, 1.0, 1.0]], 0.7)
    assert (e, p) == (1.0, 1.0)


def test_soft_rank_observed_minimum():
    (e,), (p,) = soft_rank_evalue(0.0, [[1.0, 2.0]], 0.0)
    assert e == 0.0
    assert p == 1.0


def test_soft_rank_sharpness_concentrates():
    # higher temperature pushes more of the e-value onto the top statistic
    (e0,), _ = soft_rank_evalue(3.0, [[0.0, 1.0, 2.0]], 0.0)
    (e2,), _ = soft_rank_evalue(3.0, [[0.0, 1.0, 2.0]], 2.0)
    assert e2 > e0


@pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0])
def test_soft_rank_validity_under_exchangeability(temperature):
    """Null mean within 4 SE of 1 and P <= 1/E, over exchangeable draws."""
    rng = np.random.default_rng(2024)
    trials = 20_000
    b = 19
    values = rng.standard_normal((trials, b + 1))
    evals, p = soft_rank_evalue(values[:, 0], values[:, 1:], temperature)
    with np.errstate(divide="ignore"):
        assert ((evals == 0.0) | (p <= 1.0 / evals + 1e-12)).all()
    mean = evals.mean()
    se = evals.std(ddof=1) / np.sqrt(trials)
    assert abs(mean - 1.0) < 4.0 * se, f"r={temperature}: mean {mean}, se {se}"


@pytest.mark.parametrize(
    "original, resampled, temperature, want",
    [
        # temperature times spread past about 709 - log(B + 1): expm1, or count * t0, overflows
        (1000.0, [0.0, 500.0], 1.0, (3.0, 1.0 / 3.0)),
        (709.0, [0.0, 700.0], 1.0, (3.0 / (1.0 + math.exp(-9.0)), 1.0 / 3.0)),
        (709.0, [0.0] + [709.0] * 19, 1.0, (1.05, 20.0 / 21.0)),
        # a spread past the float maximum, in the linear limit and above it
        (1e308, [-1e308, 0.0], 0.0, (2.0, 1.0 / 3.0)),
        (1e308, [-1e308, 0.0], 1.0, (3.0, 1.0 / 3.0)),
        # a tie for the row maximum, where the rounded sum tips e past 1 / p
        (2.0, [2.0, 2.0, 2.0, 2.0, 1.0], 3.0, (1.2, 5.0 / 6.0)),
    ],
)
def test_soft_rank_overflow_and_ties_give_the_exact_ratio(original, resampled, temperature, want):
    (e,), (p,) = soft_rank_evalue(original, [resampled], temperature)
    assert (e, p) == pytest.approx(want, rel=1e-12)


# rows of tied small integers, continuous values whose spread overflows
# expm1 at r = 1, and rows of one repeated value
SOFT_RANK_ROWS = st.integers(1, 8).flatmap(
    lambda b: st.lists(
        st.one_of(
            st.lists(st.integers(0, 3).map(float), min_size=b + 1, max_size=b + 1),
            st.lists(st.floats(-1e3, 1e3), min_size=b + 1, max_size=b + 1),
            st.floats(-1e3, 1e3).map(lambda v: [v] * (b + 1)),
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(SOFT_RANK_ROWS, st.sampled_from([0.0, 0.5, 1.0]))
def test_soft_rank_rows_match_one_row_calls(rows, temperature):
    """Row i of a K-row call is the one-row call on row i, bit for bit."""
    values = np.array(rows)
    e, p = soft_rank_evalue(values[:, 0], values[:, 1:], temperature)
    assert e.shape == p.shape == (len(rows),)
    for i, row in enumerate(values):
        one = soft_rank_evalue(row[0], row[None, 1:], temperature)
        assert np.array([e[i], p[i]]).tobytes() == np.array(one).tobytes()


def test_permutation_statistics_validation():
    for original, resampled, temperature in [
        (1.0, [[]], 0.0),
        ([], np.empty((0, 3)), 0.0),
        (np.inf, [[1.0]], 0.0),
        (1.0, [[np.nan]], 0.0),
        (1.0, [[np.inf, 1.0]], 0.0),
        (1.0, [[1.0]], -0.5),
        (1.0, [[1.0]], np.inf),
        (1.0, [[1.0]], np.nan),
        ([1.0, 2.0], [[1.0]], 0.0),
        ([[1.0]], [[1.0]], 0.0),
        (1.0, [1.0, 2.0], 0.0),
    ]:
        with pytest.raises(MalformedValue):
            soft_rank_evalue(original, resampled, temperature)


# ---------------------------------------------------------------- moderated t


def test_moderated_t_frozen_case():
    # beta=1, s_sq=1, v=1, df=4, df_prior=4, s2_prior=1: s2_post=1, t=1 on 8 df
    model = ModeratedTModel(1.0, 4.0, 4.0, 1.0)
    t = moderated_t(1.0, 1.0, model)
    p = moderated_t_pvalue(t, model)
    assert float(t) == pytest.approx(1.0)
    assert float(p) == pytest.approx(0.34659350708733416, rel=1e-12)


def test_moderated_t_shrinks_toward_prior():
    model = ModeratedTModel(1.0, 4.0, 4.0, 1.0)
    # observed variance 9 shrinks to (4*1 + 4*9)/8 = 5
    t = moderated_t(np.array([1.0]), np.array([9.0]), model)
    assert t[0] == pytest.approx(1.0 / np.sqrt(5.0))


def test_moderated_t_infinite_prior_collapses():
    model = ModeratedTModel(1.0, 4.0, np.inf, 2.0)
    t = moderated_t(np.array([2.0]), np.array([123.0]), model)
    p = moderated_t_pvalue(t, model)
    assert t[0] == pytest.approx(2.0 / np.sqrt(2.0))
    # normal reference when df_prior is infinite
    assert p[0] == pytest.approx(2.0 * stats.norm.sf(2.0 / np.sqrt(2.0)), rel=1e-12)


@pytest.mark.parametrize("df_prior", [3.64, np.inf])
def test_moderated_t_pvalue_matches_scipy_stats(df_prior):
    rng = np.random.default_rng(12)
    model = ModeratedTModel(0.1, 38.0, df_prior, 0.0144)
    beta_hat = np.append(rng.standard_normal(2000) * 0.1, [0.0, 3.0, -40.0])
    s_sq = 0.0144 * rng.chisquare(38.0, beta_hat.size) / 38.0
    t = moderated_t(beta_hat, s_sq, model)
    p = moderated_t_pvalue(t, model)
    np.testing.assert_allclose(p, 2.0 * stats.t.sf(np.abs(t), df_prior + 38.0), rtol=1e-14, atol=0.0)


def test_moderated_t_zero_beta_hat_over_an_underflowed_scale_keeps_its_sign():
    # s2_post * var_factor underflows to 0: +-0 / 0 would be NaN
    model = ModeratedTModel(1e-300, 4.0, 4.0, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = moderated_t(np.array([0.0, -0.0, 1.0, -1.0]), np.full(4, 1e-300), model)
    np.testing.assert_array_equal(t, [0.0, 0.0, np.inf, -np.inf])
    np.testing.assert_array_equal(np.signbit(t), [False, True, False, True])


def test_moderated_t_whose_numerator_overflows_keeps_the_other_rows_bits():
    """df * s_sq past the float maximum leaves a finite posterior variance,
    3/7 of 1e308 here: that row's t is about 9.7e-154, not 0, and every
    other row keeps the bits it has alone."""
    model = ModeratedTModel(0.1, 3.0, 4.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = moderated_t(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1e308, 1.0]), model)
    alone = moderated_t(np.array([1.0, 3.0]), np.array([1.0, 1.0]), model)
    assert t[[0, 2]].tobytes() == alone.tobytes()
    assert t[1] == pytest.approx(2.0 / math.sqrt((4.0 / 7.0 + 3.0 / 7.0 * 1e308) * 0.1), rel=1e-14)


def test_moderated_t_whose_degrees_of_freedom_sum_overflows_is_the_weighted_mean():
    """df_prior + df past the float maximum: the posterior variance is the
    weighted mean of s2_prior and s_sq, as at df_prior = df = 1e300, not
    finite / inf = 0 (first two rows) or inf / inf (the third, whose
    df * s_sq overflows too); the p-value is the normal limit's, and
    nothing warns."""
    huge = ModeratedTModel(0.1, 1e308, 1e308, 0.0144)
    beta_hat, s_sq = np.array([0.1, -0.05, 0.3]), np.array([0.01, 0.02, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = moderated_t(beta_hat, s_sq, huge)
        p = moderated_t_pvalue(t, huge)
    np.testing.assert_allclose(t, moderated_t(beta_hat, s_sq, replace(huge, df=1e300, df_prior=1e300)), rtol=1e-15)
    np.testing.assert_allclose(t, beta_hat / np.sqrt((0.0144 + s_sq) / 2.0 * 0.1), rtol=1e-15)
    np.testing.assert_allclose(t[:2], [2.863, -1.206], rtol=1e-3)
    np.testing.assert_allclose(p, 2.0 * stats.norm.sf(np.abs(t)), rtol=1e-14)


def test_model_refuses_a_gamma_over_var_factor_past_the_float_range():
    with pytest.raises(MalformedValue, match="gamma / var_factor must be finite"):
        ModeratedTModel(np.array([0.1, 1e-310]), 4.0, 4.0, 1.0, gamma=1.0)
    ModeratedTModel(np.array([0.1, 1e-310]), 4.0, 4.0, 1.0, gamma=0.0)


def test_moderated_t_evalue_at_zero():
    model = ModeratedTModel(1.0, 4.0, 4.0, 1.0, gamma=1.0)
    assert moderated_t_evalue(0.0, model) == pytest.approx(1.0 / np.sqrt(2.0))


def test_moderated_t_evalue_gamma_zero_sentinel():
    model = ModeratedTModel(1.0, 4.0, 4.0, 1.0, gamma=0.0)
    assert moderated_t_evalue(3.0, model) == 1.0


def test_moderated_t_evalue_increasing_in_abs_t():
    model = ModeratedTModel(0.1, 38.0, 3.64, 0.0144, gamma=0.5)
    grid = np.linspace(0.0, 8.0, 41)
    vals = moderated_t_evalue(grid, model)
    assert (np.diff(vals) > 0).all()
    np.testing.assert_allclose(moderated_t_evalue(-grid, model), vals)


@pytest.mark.parametrize(
    "var_factor,df,df_prior,gamma",
    [
        (1.0, 38.0, 3.64, 1.0),
        (0.1, 38.0, 3.64, 0.5),
        (1.0, 4.0, 4.0, 2.0),
    ],
)
def test_moderated_t_evalue_matches_quadrature_oracle(var_factor, df, df_prior, gamma):
    model = ModeratedTModel(var_factor, df, df_prior, 1.0, gamma=gamma)
    grid = np.linspace(-6.0, 6.0, 121)
    closed = moderated_t_evalue(grid, model)
    oracle = laguerre_density_ratio(grid, df_prior + df, gamma / var_factor)
    np.testing.assert_allclose(closed, oracle, rtol=1e-6)


def test_moderated_t_evalue_limit_where_t_squared_overflows():
    """Where t^2 overflows, t = +-inf included, e is its limit (1 + g)^(d/2),
    not NaN, within the bounds of the 400-digit table at t = +-inf; the
    same bits as a scalar and in an array, and a t of 1e150 within 1e-14."""
    table = evalue_table()
    inf_column = table["t"].index("inf")
    for row in table["rows"]:
        if (row["df_prior"], row["df"]) != ("3.64", "38.0"):
            continue
        model = ModeratedTModel(0.1, 38.0, 3.64, 0.02, gamma=float(row["gamma"]))
        limit = moderated_t_evalue(np.inf, model)
        assert within_table_bounds(limit, row["e"][inf_column]), (row["gamma"], limit)
        for t in (-np.inf, 1e200, -1e200):
            assert moderated_t_evalue(t, model) == limit
        np.testing.assert_array_equal(moderated_t_evalue(np.array([np.inf, -1e200]), model), [limit, limit])
        assert moderated_t_evalue(1e150, model) == pytest.approx(limit, rel=1e-14)


def test_moderated_t_evalue_bracket_rounding_to_zero_warns_nothing():
    """At var_factor 1e-20 both g/(1+g) and t^2/(d+t^2) round to 1 for
    t = 1e10, where the old power form's bracket rounded to 0. e is +inf
    there, as its true value is, with no warning (pytest turns
    RuntimeWarnings into errors), and t = 3 beside it is its 50-digit value."""
    import mpmath

    model = ModeratedTModel(1e-20, 38, 4.0, 0.014, 1000.0)
    e = moderated_t_evalue([1e10, 3.0], model)
    with mpmath.workdps(50):
        g, d = mpmath.mpf(1000.0 / 1e-20), mpmath.mpf(42.0)
        want = (1 + g * 9 / (d + g * d + 9)) ** ((d + 1) / 2) / mpmath.sqrt(1 + g)
    assert e[0] == np.inf
    assert e[1] == pytest.approx(float(want), rel=1e-14)


def test_moderated_t_evalue_matches_the_400_digit_table():
    """Every e below 1e6 within 64 ulp of its 400-digit reference, every
    larger e within 1e-12 relative, and +inf exactly where the value is
    past the float range: d from 41.64 to 1.7e308 and infinite (df_prior
    inf, or a df_prior + df that overflows), gamma from 1e-3 to 1e3 and t
    from +-0 to +-inf, as tests/reference/evalue_table.py lists them."""
    spec = importlib.util.spec_from_file_location("evalue_table", REFERENCE / "evalue_table.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    table = evalue_table()
    cases = [(float(row["df_prior"]), float(row["df"]), float(row["gamma"])) for row in table["rows"]]
    assert cases == [(*dfs, gamma) for dfs in generator.DFS for gamma in generator.GAMMAS]
    assert table["t"] == [repr(t) for t in generator.TS]
    t = np.array([float(x) for x in table["t"]])
    for (df_prior, df, gamma), row in zip(cases, table["rows"]):
        e = moderated_t_evalue(t, ModeratedTModel(float(table["var_factor"]), df, df_prior, 0.02, gamma=gamma))
        for x, got, want in zip(t, e, row["e"]):
            assert within_table_bounds(float(got), want), (df_prior, df, gamma, x, got, want)


@pytest.mark.parametrize(
    "df_prior, df",
    [(3.64, 1e16), (3.64, 1e20), (3.64, 1e300), (3.64, 1.7e308), (1e308, 1e308), (1e308, np.tile([1e308, 38.0], 13)[:25])],
    ids=["1e16", "1e20", "1e300", "1.7e308", "overflowing-sum", "overflowing-sum-beside-1e308"],
)
def test_moderated_t_evalue_at_a_huge_d_is_its_gaussian_limit(df_prior, df):
    """The old bracket lost t past d of about 1e15: e was 0.3015 for every t
    at d = 1e20 and +inf at 1.7e308. Here e is the Gaussian limit to
    round-off, and rises with |t|, also where rows of an infinite d sit
    beside rows of d = 1e308."""
    model = ModeratedTModel(0.1, df, df_prior, 0.0144, gamma=1.0)
    g = 1.0 / 0.1
    t = np.linspace(0.0, 6.0, 25)
    e = moderated_t_evalue(t, model)
    np.testing.assert_allclose(e, np.exp(g * t * t / (2.0 * (1.0 + g))) / np.sqrt(1.0 + g), rtol=1e-11)
    assert (np.diff(e) > 0.0).all()
    np.testing.assert_array_equal(moderated_t_evalue(-t, model), e)


def test_moderated_t_evalue_gamma_zero_is_one_at_every_t_and_d():
    """gamma = 0 gives e = 1 exactly, also at t = +-inf with an infinite d,
    where the Gaussian term's t^2 / 2 meets g = 0."""
    t = np.array([0.0, -0.0, 3.0, -1e200, np.inf, -np.inf])
    for df_prior, df in ((3.64, 38.0), (3.64, 1.7e308), (np.inf, 38.0), (1e308, 1e308)):
        e = moderated_t_evalue(t, ModeratedTModel(0.1, df, df_prior, 0.0144, gamma=0.0))
        np.testing.assert_array_equal(e, 1.0)


def test_moderated_t_evalue_gaussian_limit():
    model = ModeratedTModel(1.0, 4.0, np.inf, 1.0, gamma=1.0)
    t = 2.0
    expected = np.exp(0.5 * t * t / 2.0) / np.sqrt(2.0)
    assert moderated_t_evalue(t, model) == pytest.approx(expected, rel=1e-12)


def test_moderated_t_evalue_null_mean_is_one():
    """Draw from the full hierarchical null and check E[e] = 1 within 4 SE."""
    rng = np.random.default_rng(33)
    n = 100_000
    df_prior, s2_prior, df, v = 3.64, 0.0144, 38.0, 1.0
    sigma2 = df_prior * s2_prior / rng.chisquare(df_prior, n)
    beta_hat = rng.standard_normal(n) * np.sqrt(v * sigma2)
    s_sq = sigma2 * rng.chisquare(df, n) / df
    model = ModeratedTModel(v, df, df_prior, s2_prior, gamma=1.0)
    t = moderated_t(beta_hat, s_sq, model)
    e = moderated_t_evalue(t, model)
    mean = e.mean()
    se = e.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 1.0) < 4.0 * se, f"mean {mean}, se {se}"


def test_model_validation():
    with pytest.raises(MalformedValue):
        ModeratedTModel(0.0, 4.0, 4.0, 1.0)
    with pytest.raises(MalformedValue):
        ModeratedTModel(1.0, 4.0, -1.0, 1.0)
    with pytest.raises(MalformedValue):
        ModeratedTModel(1.0, 4.0, 4.0, 1.0, gamma=-0.1)
    with pytest.raises(MalformedValue):
        ModeratedTModel(1.0, 4.0, 4.0, 1.0, gamma=np.inf)
    # infinite prior df is legal
    ModeratedTModel(1.0, 4.0, np.inf, 1.0)


def test_model_hyperparameters_are_scalars():
    fields = {"var_factor": 1.0, "df": 4.0, "df_prior": 4.0, "s2_prior": 1.0, "gamma": 1.0}
    for name in ("df_prior", "s2_prior", "gamma"):
        with pytest.raises(MalformedValue, match=name):
            ModeratedTModel(**{**fields, name: np.array([fields[name]])})
    # the design constant and residual df stay per-hypothesis
    model = ModeratedTModel(np.array([0.1, 0.2]), np.array([10.0, 38.0]), np.float64(3.64), 0.0144, gamma=0.5)
    assert type(model.df_prior) is float
    t = moderated_t([0.1, -0.2], [0.01, 0.02], model)
    p = moderated_t_pvalue(t, model)
    assert t.shape == p.shape == moderated_t_evalue(t, model).shape == (2,)


# ---------------------------------------------------------------- limma fit


def test_fit_limma_recovers_hyperparameters():
    rng = np.random.default_rng(42)
    k, df = 10_000, 38.0
    df_prior, s2_prior = 3.64, 0.0144
    sigma2 = df_prior * s2_prior / rng.chisquare(df_prior, k)
    s_sq = sigma2 * rng.chisquare(df, k) / df
    df_hat, s2_hat = fit_limma_hyperparameters(s_sq, df)
    assert abs(df_hat - df_prior) / df_prior < 0.10
    assert abs(s2_hat - s2_prior) / s2_prior < 0.10


def test_fit_limma_homogeneous_finds_no_heterogeneity():
    # Constant true variance: the excess log-variance is near zero, so the
    # fitted prior df is either infinite or far beyond the data df (no
    # meaningful shrinkage signal), and the prior scale tracks the truth.
    rng = np.random.default_rng(7)
    s_sq = 0.02 * rng.chisquare(38.0, 5000) / 38.0
    df_hat, s2_hat = fit_limma_hyperparameters(s_sq, 38.0)
    assert df_hat > 500.0  # holds for +inf too
    assert s2_hat == pytest.approx(0.02, rel=0.05)


def test_fit_limma_degenerate_constant_variances():
    df_hat, s2_hat = fit_limma_hyperparameters(np.full(50, 0.25), 10.0)
    assert math.isinf(df_hat)
    # exp(mean centered log) = 0.25 * exp(log(5) - digamma(5))
    expected = 0.25 * math.exp(math.log(5.0) - special.digamma(5.0))
    assert s2_hat == pytest.approx(expected, rel=1e-12)


def test_trigamma_inverse_matches_brentq():
    for x in np.logspace(-8.0, 17.0, 200):
        want = optimize.brentq(
            lambda y: special.polygamma(1, y) - x, 1e-9, 1e9, xtol=1e-300, rtol=4 * np.finfo(float).eps
        )
        assert _trigamma_inverse(x) == pytest.approx(want, rel=1e-14, abs=0.0)
    # outside trigamma's range on [1e-9, 1e9] the root is clamped to an end
    assert _trigamma_inverse(2.0 * special.polygamma(1, 1e-9)) == 1e-9
    assert _trigamma_inverse(0.5 * special.polygamma(1, 1e9)) == 1e9


def trigamma_inverse_polygamma(x):
    """_trigamma_inverse's Newton iteration with scipy's polygamma."""
    lo, hi = 1e-9, 1e9
    if x >= special.polygamma(1, lo):
        return lo
    if x <= special.polygamma(1, hi):
        return hi
    y = 0.5 + 1.0 / x
    for _ in range(100):
        tri = special.polygamma(1, y)
        step = tri * (1.0 - tri / x) / special.polygamma(2, y)
        y += step
        if abs(step) <= 1e-14 * y:
            break
    return float(y)


def fit_limma_polygamma(s_sq, df):
    """fit_limma_hyperparameters with digamma and polygamma on every hypothesis."""
    s_sq = np.atleast_1d(np.asarray(s_sq, dtype=float))
    df = np.broadcast_to(np.asarray(df, dtype=float), s_sq.shape)
    centered = np.log(s_sq) - special.digamma(df / 2.0) + np.log(df / 2.0)
    center_mean = float(centered.mean())
    excess = float(centered.var(ddof=1)) - float(special.polygamma(1, df / 2.0).mean())
    if excess <= 0.0:
        return math.inf, math.exp(center_mean)
    half_df = trigamma_inverse_polygamma(excess)
    return 2.0 * half_df, math.exp(center_mean + float(special.digamma(half_df)) - math.log(half_df))


def test_polygamma_is_the_zeta_products():
    # scipy's polygamma(n, x) is (-1)^(n+1) n! zeta(n+1, x), so these hold bit for bit
    x = np.logspace(-9.0, 9.0, 40_001)
    np.testing.assert_array_equal(special.zeta(2.0, x), special.polygamma(1, x))
    np.testing.assert_array_equal(-2.0 * special.zeta(3.0, x), special.polygamma(2, x))


def test_trigamma_inverse_equals_polygamma_reference():
    ends = [special.polygamma(1, 1e-9), 2.0 * special.polygamma(1, 1e-9), special.polygamma(1, 1e9), 1e-20]
    for x in np.concatenate([np.logspace(-8.0, 17.0, 301), ends]):
        assert _trigamma_inverse(x) == trigamma_inverse_polygamma(x), x
    assert _trigamma_inverse(ends[1]) == 1e-9 and _trigamma_inverse(ends[3]) == 1e9


@pytest.mark.parametrize("df_kind", ["scalar", "one level", "integer levels", "spread"])
def test_fit_limma_equals_polygamma_reference(df_kind):
    rng = np.random.default_rng(1404)
    for k in (2, 3, 50, 2000):
        df = {
            "scalar": 38.0,
            "one level": np.full(k, 8.0),
            "integer levels": rng.choice([2.0, 4.0, 10.0, 38.0], k),
            "spread": rng.uniform(0.5, 60.0, k),
        }[df_kind]
        for df_prior in (1.5, 3.64, 40.0, 1e6):
            sigma2 = df_prior * 0.0144 / rng.chisquare(df_prior, k)
            s_sq = sigma2 * rng.chisquare(df, k) / df
            assert fit_limma_hyperparameters(s_sq, df) == fit_limma_polygamma(s_sq, df), (k, df_prior)
    constant = np.full(50, 0.25)
    assert fit_limma_hyperparameters(constant, 10.0) == fit_limma_polygamma(constant, 10.0)


def test_fit_limma_scalar_df_is_the_full_length_df():
    """One df, given as a number or as one per hypothesis, gives the same
    bits, in the fitted branch and in the df_prior = inf branch."""
    rng = np.random.default_rng(1407)
    for k in (2, 3, 300, 2000, 60_000):
        for df in (4.0, 38.0, 37.5):
            sigma2 = 3.64 * 0.0144 / rng.chisquare(3.64, k)
            for s_sq in (sigma2 * rng.chisquare(df, k) / df, np.full(k, 0.25)):
                want = fit_limma_hyperparameters(s_sq, np.full(k, df))
                assert repr(fit_limma_hyperparameters(s_sq, df)) == repr(want)
                assert repr(fit_limma_hyperparameters(s_sq, np.array([df]))) == repr(want)
    assert fit_limma_hyperparameters(np.full(50, 0.25), 10.0)[0] == math.inf


def test_fit_limma_validation():
    with pytest.raises(MalformedValue):
        fit_limma_hyperparameters([0.5], 10.0)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(MalformedValue, match="sample variances must be positive and finite"):
            fit_limma_hyperparameters([0.5, bad], 10.0)
    with pytest.raises(MalformedValue):
        fit_limma_hyperparameters([0.5, 0.5], 0.0)


@pytest.mark.parametrize(
    "df",
    [[1e-300, 3.0, 3.0], [1e-300] * 3, [5e-324] * 3, [1e-3] * 3],
    ids=["one-tiny", "all-tiny", "subnormal", "all-small"],
)
def test_fit_limma_refuses_a_df_whose_fit_leaves_the_float_range(df):
    """trigamma(df / 2), the moments of the log variances or the fitted
    scale overflow: MalformedValue, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedValue, match="cannot fit a variance prior"):
            fit_limma_hyperparameters([1.0, 2.0, 1.0], df)


# ---------------------------------------------------------------- gamma fit


def test_fit_gamma_null_data_stays_small():
    rng = np.random.default_rng(42)
    model = ModeratedTModel(1.0, 38.0, 3.64, 0.0144, gamma=0.0)
    t_null = rng.standard_t(3.64 + 38.0, 5000)
    g = fit_gamma(t_null, model)
    # on pure null data the fit returns the 0.0 sentinel or a grid point
    # small enough that the e-values barely move
    assert g <= 0.05
    e = moderated_t_evalue(np.linspace(-3, 3, 7), ModeratedTModel(1.0, 38.0, 3.64, 0.0144, gamma=g))
    np.testing.assert_allclose(e, 1.0, atol=0.1)


def test_fit_gamma_recovers_signal():
    rng = np.random.default_rng(9)
    model = ModeratedTModel(0.1, 38.0, 3.64, 0.0144, gamma=0.0)
    d = 3.64 + 38.0
    t = rng.standard_t(d, 10_000)
    t[:5000] *= np.sqrt(1.0 + 0.5 / 0.1)  # gamma = 0.5 at var_factor 0.1
    g = fit_gamma(t, model)
    assert 0.25 <= g <= 1.0  # within a factor of two of the truth


def fit_gamma_reference(t, model):
    """fit_gamma's grid search, scored with scipy.stats' t density."""
    d = model.df_prior + model.df
    null_logpdf = stats.t.logpdf(t, d)
    best_gamma, best_ll = 0.0, null_logpdf.sum()
    for gamma in GAMMA_GRID:
        scale = np.sqrt(1.0 + gamma / model.var_factor)
        alt_logpdf = stats.t.logpdf(t / scale, d) - np.log(scale)
        ll = np.logaddexp(math.log(0.5) + null_logpdf, math.log(0.5) + alt_logpdf).sum()
        if ll > best_ll:
            best_gamma, best_ll = float(gamma), ll
    return best_gamma


@pytest.mark.parametrize("df_prior, signal_fraction, seed", [
    (3.64, 0.5, 1), (3.64, 0.1, 2), (3.64, 0.02, 3), (3.64, 0.0, 4), (np.inf, 0.2, 5), (np.inf, 0.0, 6),
])
def test_fit_gamma_matches_scipy_stats_reference(df_prior, signal_fraction, seed):
    rng = np.random.default_rng(seed)
    model = ModeratedTModel(0.1, 38.0, df_prior, 0.0144, gamma=0.0)
    t = rng.standard_normal(3000) if np.isinf(df_prior) else rng.standard_t(df_prior + 38.0, 3000)
    n_signal = int(signal_fraction * t.size)
    t[:n_signal] *= np.sqrt(1.0 + 0.5 / 0.1)
    assert fit_gamma(t, model) == fit_gamma_reference(t, model)


@pytest.mark.parametrize("k", [2, 50, 2000])
@pytest.mark.parametrize("design", ["scalar", "per-hypothesis", "gaussian"])
def test_fit_gamma_picks_the_logaddexp_reference_point(k, design):
    rng = np.random.default_rng(1405)
    for signal_fraction in (0.0, 0.02, 0.1, 0.5):
        for _ in range(4):
            if design == "scalar":
                model = ModeratedTModel(0.1, 38.0, 3.64, 0.0144)
            else:
                var_factor = rng.choice([0.05, 0.1, 0.5], k)
                df = rng.choice([4.0, 10.0, 38.0], k)
                model = ModeratedTModel(var_factor, df, 3.64 if design == "per-hypothesis" else np.inf, 0.0144)
            d = model.df_prior + np.asarray(model.df, dtype=float)
            t = rng.standard_normal(k) if design == "gaussian" else rng.standard_t(np.broadcast_to(d, k))
            n_signal = int(signal_fraction * k)
            effect = rng.choice([0.1, 0.5, 5.0])
            t[:n_signal] *= np.sqrt(1.0 + effect / np.broadcast_to(model.var_factor, k)[:n_signal])
            assert fit_gamma(t, model) == fit_gamma_reference(t, model), (signal_fraction, effect)


def gamma_scores_point_by_point(t, model):
    """fit_gamma's scores computed one grid point at a time with the same
    log-e helper, each summed over a vector of its own."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    log_e_at = _log_evalue(t, model)
    scores = []
    with np.errstate(divide="ignore", over="ignore"):
        for gamma in GAMMA_GRID:
            log_e = log_e_at(gamma)
            terms = np.maximum(np.log1p(np.exp(np.minimum(log_e, 709.0))), log_e)
            scores.append(float(terms.sum()) - t.size * math.log(2.0))
    return np.array(scores)


def pick_first_best(scores):
    best_gamma, best_score = 0.0, 0.0
    for gamma, score in zip(GAMMA_GRID, scores):
        if score > best_score or score == math.inf:
            best_gamma, best_score = float(gamma), score
    return best_gamma


@pytest.mark.parametrize("k", [1, 399, 400, 2000, 16384, 16385])
@pytest.mark.parametrize("design", ["scalar", "per-hypothesis", "gaussian"])
def test_fit_gamma_slabs_give_the_point_by_point_scores(k, design):
    """Scoring the grid in slabs gives each point's score to the last bit,
    and the pick of the first best point, at the sizes where a slab holds
    every point (K = 399), two slabs split the grid (K = 400), and a slab
    is one point (K = 16384 on); with +-inf and an all-zero t."""
    rng = np.random.default_rng(1406 + k)
    var_factor = rng.choice([0.05, 0.1, 0.5], k) if design != "scalar" else 0.1
    df = rng.choice([4.0, 10.0, 38.0], k) if design != "scalar" else 38.0
    model = ModeratedTModel(var_factor, df, math.inf if design == "gaussian" else 3.64, 0.0144, gamma=0.0)
    t = rng.standard_t(6.0, k) * rng.choice([1.0, 1.0, 3.0], k)
    infinite = t.copy()
    infinite[:: max(1, k // 3)] = np.inf
    infinite[1 :: max(2, k // 2)] = -np.inf
    for case in (t, infinite, np.zeros(k)):
        want = gamma_scores_point_by_point(case, model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _gamma_scores(case, model)
        assert got.tobytes() == want.tobytes()
        assert fit_gamma(case, model) == pick_first_best(want)
    assert fit_gamma(np.zeros(k), model) == 0.0


def fit_gamma_mpmath(t, model):
    """fit_gamma's grid search, scored at 50 digits from the two densities.

    Under the alternative t / s ~ t(d) with s = sqrt(1 + gamma / var_factor),
    so log e = log f0(t / s) - log s - log f0(t), in which f0's normalizer
    cancels; a grid point scores sum log((1 + e) / 2), the null-only model 0.
    """
    import mpmath

    with mpmath.workdps(50):
        d = mpmath.mpf(model.df_prior + model.df)
        if mpmath.isinf(d):
            log_f0 = lambda x: -x * x / 2
        else:
            log_f0 = lambda x: -(d + 1) / 2 * mpmath.log1p(x * x / d)
        ts = [mpmath.mpf(float(x)) for x in t]
        best_gamma, best_score = 0.0, mpmath.mpf(0)
        for gamma in GAMMA_GRID:
            s = mpmath.sqrt(1 + mpmath.mpf(float(gamma)) / model.var_factor)
            score = mpmath.mpf(0)
            for x in ts:
                log_e = log_f0(x / s) - mpmath.log(s) - log_f0(x)
                log1p_e = log_e + mpmath.log1p(mpmath.exp(-log_e)) if log_e > 0 else mpmath.log1p(mpmath.exp(log_e))
                score += log1p_e - mpmath.log(2)
            if score > best_score:
                best_gamma, best_score = float(gamma), score
    return best_gamma


@pytest.mark.parametrize("df_prior", [3.64, np.inf])
def test_fit_gamma_infinite_t_matches_the_mpmath_oracle(df_prior):
    """t = +-inf and t = +-1e300 count as their limiting evidence, with no
    warning; in the Gaussian limit 1e300 squared overflows and every grid
    point scores +inf, so the largest one is taken."""
    model = ModeratedTModel(0.1, 38.0, df_prior, 0.0144)
    for t in (np.array([np.inf, 0.3, -2.5, 4.0, -np.inf]), np.array([np.inf])):
        huge = np.clip(t, -1e300, 1e300)
        want = fit_gamma_mpmath(huge, model)
        assert want == GAMMA_GRID[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_gamma(t, model) == fit_gamma(huge, model) == want


def test_fit_gamma_infinite_t_inside_the_grid_matches_the_mpmath_oracle():
    """An infinite t adds (1 + g)^(d/2) as its e-value; with enough null
    statistics against it the best gamma lies inside the grid."""
    model = ModeratedTModel(1.0, 4.0, 3.0, 1.0)
    t = np.random.default_rng(1501).standard_t(7.0, 60)
    t[:6] *= 2.0
    t[0] = np.inf
    want = fit_gamma_mpmath(np.clip(t, -1e300, 1e300), model)
    assert GAMMA_GRID[0] < want < GAMMA_GRID[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_gamma(t, model) == want


def test_fit_gamma_where_every_point_ties_the_null_model_is_the_sentinel():
    """A variance factor so large that every e-value is exactly 1 scores 0
    at every grid point; none beats the null-only model, so the fit is the
    0.0 sentinel, not a grid point."""
    t = np.random.default_rng(1408).standard_t(12.0, 50)
    model = ModeratedTModel(1e30, 8.0, 4.0, 0.1)
    assert (_gamma_scores(t, model) == 0.0).all()
    assert fit_gamma(t, model) == 0.0


def test_fit_gamma_with_one_huge_statistic_is_not_the_null_sentinel():
    """One -inf log density used to tie every grid point with the null model."""
    rng = np.random.default_rng(1406)
    model = ModeratedTModel(0.1, 38.0, 3.64, 0.0144)
    t = rng.standard_t(41.64, 2000)
    t[:200] *= np.sqrt(1.0 + 0.5 / 0.1)
    t[7] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_gamma(t, model) > 0.0


def test_gamma_scores_past_the_float_range_are_their_limits():
    """A d so large that d log(1 + g) overflows scores as the Gaussian limit
    it equals to the last bits, beside rows of an ordinary d that score as
    they do alone, and a subnormal v, whose g overflows, scores finite: no
    warning on the way."""
    rng = np.random.default_rng(1407)
    t = rng.standard_t(41.64, 500)
    t[:50] *= 3.0
    df = np.where(np.arange(t.size) % 5 == 0, 1e308, 38.0)

    def scores(t, df, df_prior=3.64, var_factor=0.1):
        return _gamma_scores(t, ModeratedTModel(var_factor, df, df_prior, 0.0144, gamma=0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = scores(t, df)
        huge, ordinary = scores(t[df > 38.0], 38.0, np.inf), scores(t[df == 38.0], 38.0)
        tiny = scores(t, 38.0, var_factor=np.full(t.size, 1e-310))
    np.testing.assert_allclose(mixed, huge + ordinary, rtol=1e-12)
    assert np.isfinite(tiny).all()


def test_gamma_scores_are_the_sum_of_log_mean_evalues():
    """Each grid point's score is sum_i log((1 + e_i) / 2), e_i from
    moderated_t_evalue at that gamma, to round-off: rows with per-row v,
    a d of 1.7e308 beside 41.64 with t = +-inf among the latter, and rows
    whose df_prior + df overflows beside rows of d = 1e308."""
    rng = np.random.default_rng(2929)
    k = 300
    huge = np.arange(k) % 3 == 0
    v = rng.choice([0.05, 0.1, 0.5], k)
    t = rng.standard_t(8.0, k) * rng.choice([1.0, 1.0, 3.0], k)
    infinite_t = t.copy()
    infinite_t[[1, 2, 4, 5]] = [np.inf, -np.inf, np.inf, -np.inf]
    for t, df_prior, df in ((infinite_t, 3.64, np.where(huge, 1.7e308, 38.0)), (t, 1e308, np.where(huge, 1e308, 38.0))):
        model = ModeratedTModel(v, df, df_prior, 0.0144, gamma=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = _gamma_scores(t, model)
        for gamma, score in zip(GAMMA_GRID, scores):
            log1p_e = np.log1p(moderated_t_evalue(t, replace(model, gamma=float(gamma))))
            want = float(log1p_e.sum()) - k * math.log(2.0)
            assert abs(score - want) <= 1e-12 * (float(log1p_e.sum()) + k * math.log(2.0)), (df_prior, gamma)


def test_gamma_scores_at_a_subnormal_v_are_never_nan():
    """At v = 1e-310, g = gamma / v overflows and is capped at the float
    maximum, so a row of t = +-inf scores a number, +inf where 1 / g is
    subnormal, never NaN, and with no warning."""
    t = np.array([np.inf, -np.inf, 0.0, 2.5, -1.0])
    model = ModeratedTModel(np.full(t.size, 1e-310), 38.0, 3.64, 0.0144, gamma=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = _gamma_scores(t, model)
    assert not np.isnan(scores).any()


def test_gamma_grid_shape():
    assert GAMMA_GRID[0] == pytest.approx(1e-3)
    assert GAMMA_GRID[-1] == pytest.approx(1e3)
    assert len(GAMMA_GRID) == 41


def test_fit_moderated_model_pipeline():
    rng = np.random.default_rng(3)
    k, df, v = 4000, 38.0, 0.1
    df_prior, s2_prior = 3.64, 0.0144
    sigma2 = df_prior * s2_prior / rng.chisquare(df_prior, k)
    beta = np.zeros(k)
    beta[:400] = rng.standard_normal(400) * np.sqrt(0.5 * sigma2[:400])
    beta_hat = beta + rng.standard_normal(k) * np.sqrt(v * sigma2)
    s_sq = sigma2 * rng.chisquare(df, k) / df
    model, t, _ = fit_moderated_model(beta_hat, s_sq, v, df)
    assert t.shape == (k,)
    assert 2.0 < model.df_prior < 6.0
    assert model.gamma > 0.0
    e = moderated_t_evalue(t, model)
    assert (e >= 0.0).all()


# ---------------------------------------------------------------- chi-square LR


def test_chisq_lr_point_values():
    assert chisq_lr_evalue(5.0, 9.0, 0.0) == 1.0
    assert chisq_lr_evalue(0.0, 9.0, 10.0) == pytest.approx(math.exp(-5.0), rel=1e-12)


def test_chisq_lr_matches_density_ratio():
    s = np.array([0.5, 3.0, 9.0, 25.0, 80.0])
    got = chisq_lr_evalue(s, 9.0, 10.0)
    want = stats.ncx2.pdf(s, 9.0, 10.0) / stats.chi2.pdf(s, 9.0)
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize(
    "df, ncp", [(9.0, 10.0), (3.0, 0.5), (1.0, 3.0), (20.0, 50.0), (9.0, 1000.0), (9.0, 1500.0), (2.0, 1000.0)]
)
def test_chisq_lr_matches_log_density_ratio(df, ncp):
    # exp(-ncp/2) * 0F1 overflows or underflows at (9, 1000, 1000), (9, 1500, 1509)
    # and (9, 10, 54000); at df = 2 scipy's asymptotic 0F1 returns 0 from s = 1000
    s = np.array(
        [1e-300, 1e-200, 1e-100, 1e-10, 1e-3, 0.5, 3.0, 9.0, 25.0, 80.0, 400.0, 1000.0, 1509.0, 4000.0, 4e4, 54000.0]
    )
    got = chisq_lr_evalue(s, df, ncp)
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = stats.ncx2.logpdf(s, df, ncp) - stats.chi2.logpdf(s, df)
        ratio = np.exp(log_ratio)
    assert not np.isinf(got[np.isfinite(ratio)]).any()
    # scipy's noncentral log density is -inf at tiny s for df > 2, where the
    # series is exp(-ncp/2) to double precision
    tiny = log_ratio == -np.inf
    assert (s[tiny] <= 1e-10).all()
    np.testing.assert_allclose(got[~tiny], ratio[~tiny], rtol=1e-10)
    np.testing.assert_allclose(got[tiny], math.exp(-ncp / 2.0), rtol=1e-15)
    assert chisq_lr_evalue(0.0, df, ncp) == math.exp(-ncp / 2.0)


def test_chisq_lr_is_never_nan():
    s = np.concatenate(([0.0, 5e-324], np.logspace(-300.0, 308.0, 305), [np.finfo(float).max, np.inf]))
    for df in (0.5, 1.0, 2.0, 9.0, 300.0):
        for ncp in (1e-8, 10.0, 1000.0, 1500.0, 1e10):
            e = chisq_lr_evalue(s, df, ncp)
            assert not np.isnan(e).any() and (e >= 0.0).all(), (df, ncp)
            assert e[-1] == np.inf, (df, ncp)
    assert chisq_lr_evalue(np.inf, 9.0, 10.0) == np.inf


def test_chisq_lr_handles_extreme_statistics():
    # the direct pdf ratio would be 0/0 out here; the 0F1 series is finite
    e = chisq_lr_evalue(4000.0, 9.0, 10.0)
    assert np.isfinite(e) and e > 1e60


def test_chisq_lr_median_below_one():
    # the LR is small when the statistic looks null-ish
    rng = np.random.default_rng(15)
    s = rng.chisquare(9.0, 50_000)
    e = chisq_lr_evalue(s, 9.0, 10.0)
    assert np.median(e) < 1.0


def test_chisq_lr_null_mean_is_one():
    rng = np.random.default_rng(16)
    s = rng.chisquare(9.0, 1_000_000)
    e = chisq_lr_evalue(s, 9.0, 10.0)
    mean = e.mean()
    se = e.std(ddof=1) / np.sqrt(e.size)
    assert abs(mean - 1.0) < 4.0 * se, f"mean {mean}, se {se}"


def test_chisq_lr_validation():
    with pytest.raises(MalformedValue):
        chisq_lr_evalue(-1.0, 9.0, 10.0)
    with pytest.raises(MalformedValue):
        chisq_lr_evalue(1.0, 0.0, 10.0)
    with pytest.raises(MalformedValue):
        chisq_lr_evalue(1.0, 9.0, -1.0)


@pytest.mark.parametrize("df, ncp", [
    (9.0, float("nan")), (9.0, float("inf")), (float("nan"), 10.0), (float("inf"), 10.0),
], ids=["ncp-nan", "ncp-inf", "df-nan", "df-inf"])
def test_chisq_lr_refuses_non_finite_parameters(df, ncp):
    # each of these used to pass validation and return NaN
    with pytest.raises(MalformedValue):
        chisq_lr_evalue(np.array([0.0, 1.0, 50.0]), df, ncp)


NONNEGATIVE = {"0-d": np.array(-0.0), "1-d": np.array([0.0, -0.0, np.inf, 3.0]), "empty": np.array([])}


@pytest.mark.parametrize("shape", NONNEGATIVE)
def test_nonnegative_statistics_check_over_shapes(shape):
    """chisq_lr_evalue's statistics and moderated_t's sample variances take
    -0.0, +inf and empty input in any shape, and refuse a negative or NaN
    entry with their messages."""
    values = NONNEGATIVE[shape]
    model = ModeratedTModel(1.0, 4.0, 4.0, 1.0)
    assert np.shape(chisq_lr_evalue(values, 9.0, 10.0)) == values.shape
    assert np.shape(moderated_t(np.ones_like(values), values, model)) == values.shape
    for bad in (-5e-324, np.nan):
        spoiled = np.append(values, bad) if values.ndim else np.array(bad)
        with pytest.raises(MalformedValue, match="chi-square statistics must be >= 0"):
            chisq_lr_evalue(spoiled, 9.0, 10.0)
        with pytest.raises(MalformedValue, match="sample variances must be >= 0"):
            moderated_t(np.ones_like(spoiled), spoiled, model)


# ---------------------------------------------------------------- lambda shift


def test_shift_evalue_values():
    assert shift_evalue(4.0, 0.25) == pytest.approx(3.25)
    assert shift_evalue(0.0, 0.1) == pytest.approx(0.1)
    assert shift_evalue(7.0, 0.0) == 7.0


def test_shift_evalue_lambda_one_discards_evidence():
    assert shift_evalue(np.inf, 1.0) == 1.0
    assert shift_evalue(0.0, 1.0) == 1.0


def test_shift_evalue_validation():
    with pytest.raises(BadLambda):
        shift_evalue(2.0, -0.1)
    with pytest.raises(BadLambda):
        shift_evalue(2.0, 1.1)
    with pytest.raises(MalformedValue):
        shift_evalue(-1.0, 0.5)


def test_shift_evalue_refuses_empty_and_matrix():
    # the same vector check as every other calib function
    with pytest.raises(EmptyInput):
        shift_evalue([], 0.5)
    with pytest.raises(MalformedValue):
        shift_evalue(np.ones((2, 2)), 0.5)


def test_shift_evalue_preserves_validity():
    rng = np.random.default_rng(17)
    e = Calibrator("sqrt")(rng.random(200_000))
    shifted = shift_evalue(e, 0.3)
    mean = shifted.mean()
    se = shifted.std(ddof=1) / np.sqrt(shifted.size)
    assert mean < 1.0 + 4.0 * se
    assert (shifted >= 0.3).all()
