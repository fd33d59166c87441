"""Building e-values from data.

Three constructions are provided:

* soft-rank permutation e-values for K tests at once: an exponential
  reweighting of each original statistic's rank among its row of
  resampled copies, overflow-safe at any temperature, paired with the
  classical permutation p-value;
* moderated t-statistics with empirical-Bayes variance shrinkage, their
  p-values, and the likelihood-ratio e-value of a Gaussian random-effect
  alternative against the point null;
* the likelihood ratio of a noncentral to a central chi-square density,
  for variance-like side statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .core import MalformedValue

_FLOAT_MAX = np.finfo(float).max


@np.errstate(over="ignore", invalid="ignore")
def soft_rank_evalue(original, resampled, temperature: float = 0.0):
    """Soft-rank e-values and classical rank p-values of K permutation tests.

    original holds the K observed statistics L_0 (a single number is one
    test); resampled is (K, B), row i holding the copies L_1..L_B that are
    exchangeable with original[i] under its null. Each row is shifted by
    its minimum and transformed by (exp(r*z) - 1) / r, or z at r = 0. The
    e-value is the transformed observed statistic over the row's mean; the
    p-value is the row's share at least as large as the observed one,
    counting itself. The ratio is taken from the terms scaled by the
    row's largest, each in [0, 1], so that no temperature or spread
    overflows.

    Returns (e, p) as K-vectors. A row of equal statistics gives
    (1.0, 1.0). p <= 1/e holds, up to rounding.
    """
    observed = np.asarray(original, dtype=float)
    resampled = np.asarray(resampled, dtype=float)
    if observed.ndim > 1 or resampled.ndim != 2 or resampled.shape[0] != observed.size:
        raise MalformedValue("resampled statistics must form one row per observed statistic")
    if resampled.size < 1:
        raise MalformedValue("permutation statistics must be nonempty")
    if not (np.isfinite(observed).all() and np.isfinite(resampled).all()):
        raise MalformedValue("permutation statistics must be finite")
    if not 0.0 <= temperature < math.inf:
        raise MalformedValue(f"temperature must be finite and >= 0, got {temperature!r}")
    values = np.concatenate((observed.reshape(-1, 1), resampled), axis=1)
    count = values.shape[1]
    p = np.count_nonzero(values >= values[:, :1], axis=1) / count
    low, high = values.min(axis=1, keepdims=True), values.max(axis=1, keepdims=True)
    r = float(temperature)
    if r > 0.0:
        # (exp(r z) - 1) / r times r exp(-r z_max); an overflowed z counts as its limit
        terms = np.exp(r * (values - high)) * -np.expm1(-r * (values - low))
    else:
        # on halves, so that a spread past the float maximum stays finite
        half_spread = high / 2.0 - low / 2.0
        terms = (values / 2.0 - low / 2.0) / np.where(half_spread > 0.0, half_spread, 1.0)
    total = terms.sum(axis=1)
    e = np.where(total == 0.0, 1.0, count * terms[:, 0] / total)
    # p * e is 1 at a tie for the row maximum, where the sum's rounding may tip it past
    assert (p * e <= 1.0 + 1e-12).all()
    return e, p


@dataclass(frozen=True)
class ModeratedTModel:
    """Hierarchical variance model behind moderated t-statistics.

    The coefficient estimate satisfies beta_hat | beta, sigma2 ~
    N(beta, var_factor * sigma2); the sample variance satisfies
    s_sq | sigma2 ~ (sigma2 / df) * chisq(df); and the precision prior is
    1 / sigma2 ~ chisq(df_prior) / (df_prior * s2_prior). Under the
    alternative the effect is beta | sigma2 ~ N(0, gamma * sigma2).

    var_factor is the design constant multiplying sigma2 in the
    coefficient variance (1/n1 + 1/n2 for a two-group mean difference).
    df_prior may be +inf, meaning no variance heterogeneity: the
    posterior variance collapses to s2_prior. gamma = 0 is the
    uninformative sentinel (e-values identically 1). var_factor and df
    may be per-hypothesis arrays broadcastable against the data; the
    hyperparameters df_prior, s2_prior and gamma are single numbers,
    stored as floats, and an array raises MalformedValue.
    """

    var_factor: float
    df: float
    df_prior: float
    s2_prior: float
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("df_prior", "s2_prior", "gamma"):
            if np.ndim(getattr(self, name)) != 0:
                raise MalformedValue(f"{name} must be a single number, not an array")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("var_factor", "df", "s2_prior"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not (np.isfinite(value).all() and (value > 0.0).all()):
                raise MalformedValue(f"{name} must be positive and finite")
        if math.isnan(self.df_prior) or self.df_prior <= 0.0:
            raise MalformedValue("df_prior must be positive (+inf allowed)")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise MalformedValue("gamma must be finite and >= 0")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.gamma / np.asarray(self.var_factor, dtype=float)).all():
                raise MalformedValue("gamma / var_factor must be finite")


def moderated_t(beta_hat, s_sq, model: ModeratedTModel):
    """Moderated t-statistics.

    The sample variance is shrunk toward the prior,
    s2_post = (df_prior * s2_prior + df * s_sq) / (df_prior + df), and
    t_tilde = beta_hat / sqrt(s2_post * var_factor), an array matching
    the input shape. A beta_hat near the float maximum, or a scale that
    underflows to 0, may give t = +-inf, whose p-value is 0 and whose
    e-value is its limit in t; a beta_hat of +-0 gives t = beta_hat.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    s_sq = np.asarray(s_sq, dtype=float)
    # NaN propagates through the reduction and fails the comparison
    if not np.minimum.reduce(s_sq, axis=None, initial=np.inf) >= 0.0:
        raise MalformedValue("sample variances must be >= 0")
    if math.isinf(model.df_prior):
        s2_post = np.broadcast_to(model.s2_prior, s_sq.shape)
    else:
        df = np.asarray(model.df, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            total = model.df_prior + df
            s2_post = (model.df_prior * model.s2_prior + df * s_sq) / total
            # where the numerator or the sum overflows, the same weighted mean of finite terms
            weight = 1.0 / (1.0 + model.df_prior / df)
            overflow = np.isinf(s2_post) | np.isinf(total)
            s2_post = np.where(overflow, (1.0 - weight) * model.s2_prior + weight * s_sq, s2_post)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a zero beta_hat over a scale that underflowed to 0 is 0/0
        return np.where(beta_hat == 0.0, beta_hat, beta_hat / np.sqrt(s2_post * model.var_factor))


def moderated_t_pvalue(t_tilde, model: ModeratedTModel):
    """Two-sided p-values of moderated t-statistics.

    t_tilde is referred to a t distribution on df_prior + df degrees of
    freedom, normal when df_prior is infinite. Returns an array matching
    the input shape.
    """
    t = np.asarray(t_tilde, dtype=float)
    # a sum of degrees of freedom that overflows is the normal limit
    with np.errstate(over="ignore"):
        return 2.0 * special.stdtr(model.df_prior + np.asarray(model.df, dtype=float), -np.abs(t))


@np.errstate(divide="ignore", over="ignore")
def moderated_t_evalue(t_tilde, model: ModeratedTModel):
    """Likelihood-ratio e-value of the random-effect alternative.

    For g = gamma / var_factor and d = df_prior + df,

        e = (1 + g)^(-1/2) * (1 + g t^2 / (d + g d + t^2))^((d+1)/2),

    the density ratio of the moderated t-statistic under
    beta | sigma2 ~ N(0, gamma * sigma2) versus beta = 0, so its null
    expectation is exactly 1. It is 1 at gamma = 0, the Gaussian limit
    (1 + g)^(-1/2) exp(g t^2 / (2 (1 + g))) where d is infinite (df_prior
    = inf, or df_prior + df overflows), and (1 + g)^(d/2) at t = +-inf.
    Against 400-digit references (tests/reference), e below 1e6 is within
    64 ulp and a larger e within 1e-12 relative, at d from 41.64 to inf.
    """
    out = np.exp(_log_evalue(t_tilde, model)(model.gamma))
    return float(out) if np.ndim(out) == 0 else out


def _log_evalue(t_tilde, model: ModeratedTModel):
    """log e of moderated_t_evalue as a function of gamma, of any shape that
    broadcasts against t_tilde and the model's arrays; callers ignore divide
    and over in np.errstate.

    With r = t^2 / d, w = 1 / (1 + r), u = r w and q = g / (1 + g w),
    log e = a log1p(q u) + b q - log1p(g) / 2, (a, b) being ((d + 1) / 2, 0)
    for finite d and (0, t^2 / 2) for infinite d: no term grows with d, and
    nothing cancels. Where t^2 / d overflows, w = 0 and u = 1; b caps t^2,
    and g is capped, at the float maximum, so g = 0 gives 0 on every row.
    q is 1 / (1 / g + w); a term that is 0 on every row is skipped.
    """
    d = model.df_prior + np.asarray(model.df, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        tsq = np.square(np.asarray(t_tilde, dtype=float))
        r = tsq / d
        w = 1.0 / (1.0 + r)
        u = r * w
    edge = np.isinf(tsq) | np.isinf(r)
    w, u = np.where(edge, 0.0, w), np.where(edge, 1.0, u)
    gaussian = np.isinf(d)
    a = np.where(gaussian, 0.0, (d + 1.0) / 2.0)
    a_terms, b_terms = a.any(), gaussian.any()
    b = np.where(gaussian, np.minimum(tsq, _FLOAT_MAX) / 2.0, 0.0) if b_terms else 0.0

    def log_e(gamma):
        g = np.minimum(gamma / np.asarray(model.var_factor, dtype=float), _FLOAT_MAX)
        inv_q = 1.0 / g + w
        if a_terms:
            out = np.log1p(u / inv_q)
            out *= a
            if b_terms:
                out += b / inv_q
        else:
            out = b / inv_q
        out -= 0.5 * np.log1p(g)
        return out

    return log_e


def _trigamma_inverse(x: float) -> float:
    """Solve trigamma(y) = x for y > 0; trigamma decreases from inf to 0.

    Newton's method on 1/trigamma, which is nearly linear, as in limma.
    trigamma(y) is zeta(2, y) and its derivative -2 zeta(3, y), the very
    products scipy's polygamma forms, without its per-call overhead.
    """
    lo, hi = 1e-9, 1e9
    if x >= special.zeta(2.0, lo):
        return lo
    if x <= special.zeta(2.0, hi):
        return hi
    y = 0.5 + 1.0 / x
    for _ in range(100):  # convergence takes at most about 35 steps
        tri = special.zeta(2.0, y)
        step = tri * (1.0 - tri / x) / (-2.0 * special.zeta(3.0, y))
        y += step
        if abs(step) <= 1e-14 * y:
            break
    return float(y)


def fit_limma_hyperparameters(s_sq, df) -> tuple[float, float]:
    """Moment-matching estimates (df_prior, s2_prior) from sample variances.

    Matches the mean and variance of log s_sq against the model: centered
    log variances e_k = log(s_sq_k) - digamma(df_k/2) + log(df_k/2) have
    mean log(s2_prior) - digamma(df_prior/2) + log(df_prior/2) and
    variance trigamma(df_k/2) + trigamma(df_prior/2). The prior df solves
    the variance equation by monotone root-finding.

    When the sample variance of the centered logs does not exceed the
    minimum attainable under the model (mean trigamma(df_k/2)), the
    variances carry no detectable heterogeneity and (inf, exp(mean))
    is returned; downstream shrinkage then uses s2_prior alone.

    digamma and trigamma are evaluated once per distinct df, not once per
    hypothesis; df is usually one number or a few.
    """
    s_sq = np.atleast_1d(np.asarray(s_sq, dtype=float))
    df = np.asarray(df, dtype=float)
    np.broadcast_to(df, s_sq.shape)  # raises unless df gives one value per hypothesis
    if s_sq.size < 2:
        raise MalformedValue("need at least two sample variances to fit a prior")
    if not ((s_sq > 0.0) & (s_sq < np.inf)).all():
        raise MalformedValue("sample variances must be positive and finite")
    if (df <= 0.0).any() or not np.isfinite(df).all():
        raise MalformedValue("residual df must be positive and finite")
    # the levels come from df as given, not from a copy per hypothesis; the
    # index is one per hypothesis, so each mean below is over all of them
    levels, level_of = np.unique(df / 2.0, return_inverse=True)
    level_of = np.broadcast_to(level_of.reshape(df.shape), s_sq.shape)
    # below a df of about 1e-154, trigamma(df / 2) and the moments overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        centered = np.log(s_sq) - special.digamma(levels)[level_of] + np.log(df / 2.0)
        center_mean = float(centered.mean())
        # trigamma is zeta(2, .), as scipy's polygamma(1, .) computes it
        excess = float(centered.var(ddof=1)) - float(special.zeta(2.0, levels)[level_of].mean())
    # digamma(y) < log(y), so s2_prior < exp(center_mean) below
    if not (math.isfinite(excess) and center_mean < math.log(_FLOAT_MAX)):
        raise MalformedValue("cannot fit a variance prior: its moments or scale leave the float range")
    if excess <= 0.0:
        return math.inf, math.exp(center_mean)
    half_df = _trigamma_inverse(excess)
    s2_prior = math.exp(center_mean + float(special.digamma(half_df)) - math.log(half_df))
    return 2.0 * half_df, s2_prior


GAMMA_GRID = np.logspace(-3.0, 3.0, 41)

# grid points times hypotheses that _gamma_scores scores at once
_SLAB_ELEMENTS = 16384


def fit_gamma(t_tilde, model: ModeratedTModel) -> float:
    """Marginal-likelihood estimate of the effect-variance ratio gamma.

    Scores an equal-mass two-component model (half null, half
    random-effect alternative) for each gamma on a fixed 41-point
    log-spaced grid spanning [1e-3, 1e3]. The null density cancels from
    the mixture's likelihood ratio over the null-only model, leaving
    sum_i log((1 + e_i(gamma)) / 2) with e_i the moderated_t_evalue; the
    null-only model scores 0. The mixing proportion stays fixed at 1/2
    and is never estimated. Returns the best grid point itself, or 0.0
    (the uninformative sentinel) when no grid point scores above 0; the
    scores are compared, never returned, so their round-off does not
    reach the output.

    The grid is scored in slabs: consecutive grid points by all
    hypotheses, about 16,384 terms a slab (_SLAB_ELEMENTS), so from K =
    16,384 on a slab is one grid point. A score is its row's sum
    along the last axis, to the last bit the same pairwise sum as that of
    its grid point's terms alone, and the points are compared in grid
    order.

    A score is +inf, or past 1e300, only where some row's log e is: t^2
    overflowing, or t = +-inf at a d near the float maximum or infinite;
    log e then grows with gamma, so the largest point wins.
    """
    best_gamma, best_score = 0.0, 0.0
    for gamma, score in zip(GAMMA_GRID, _gamma_scores(t_tilde, model)):
        if score > best_score or score == math.inf:
            best_gamma, best_score = float(gamma), float(score)
    return best_gamma


@np.errstate(over="ignore")
def _gamma_scores(t_tilde, model: ModeratedTModel) -> np.ndarray:
    """fit_gamma's score at each point of GAMMA_GRID, in grid order,
    scored in slabs as fit_gamma describes."""
    t = np.atleast_1d(np.asarray(t_tilde, dtype=float))
    log_e_at = _log_evalue(t, model)
    sums = np.empty(GAMMA_GRID.size)
    points = max(1, _SLAB_ELEMENTS // max(t.size, 1))
    for lo in range(0, GAMMA_GRID.size, points):
        log_e = log_e_at(GAMMA_GRID[lo : lo + points, None])
        # log(1 + e) = max(log1p(exp(min(log e, 709))), log e), in place; not
        # np.logaddexp, whose scalar libm loop is slower than these passes
        tail = np.minimum(log_e, 709.0)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(tail, log_e, out=log_e)
        sums[lo : lo + points] = log_e.sum(axis=-1)
    return sums - t.size * math.log(2.0)


def fit_moderated_model(beta_hat, s_sq, var_factor, df) -> tuple[ModeratedTModel, np.ndarray, np.ndarray]:
    """Fit the full moderated-t pipeline from summary statistics.

    Estimates the scalars (df_prior, s2_prior) from the sample variances,
    forms the moderated t-statistics and their p-values, then estimates
    the scalar gamma on the t-statistics. Returns (model, t_tilde, p);
    t_tilde and p do not depend on gamma.
    """
    df_prior, s2_prior = fit_limma_hyperparameters(s_sq, df)
    model = ModeratedTModel(var_factor, df, df_prior, s2_prior, gamma=0.0)
    t_tilde = moderated_t(beta_hat, s_sq, model)
    return replace(model, gamma=fit_gamma(t_tilde, model)), t_tilde, moderated_t_pvalue(t_tilde, model)


def chisq_lr_evalue(s, df: float, ncp: float):
    """Likelihood ratio of a noncentral over a central chi-square density.

    Valid e-value for a statistic that is chisq(df) under the null;
    ncp = 0 returns 1 exactly. The noncentral density is a Poisson(ncp/2)
    mixture of chisq(df + 2j) densities, so the ratio is the series
    exp(-ncp/2) * 0F1(; df/2; ncp*s/4), which is exp(-ncp/2) at s = 0.
    Where that product is not a positive finite number (exp(-ncp/2)
    underflows or 0F1 overflows), the entry is evaluated in log space
    through the exponentially scaled Bessel function I_{df/2-1}, and so
    is every entry with sqrt(ncp * s) > 700, where scipy's 0F1 would
    switch to an asymptotic branch that divides by zero at df = 2. For
    ncp > 0, s = +inf gives +inf; for finite df and ncp, no s gives NaN.
    """
    s_arr = np.asarray(s, dtype=float)
    # NaN propagates through the reduction and fails the comparison
    if not np.minimum.reduce(s_arr, axis=None, initial=np.inf) >= 0.0:
        raise MalformedValue("chi-square statistics must be >= 0")
    if not 0 < df < math.inf:
        raise MalformedValue(f"df must be positive and finite, got {df!r}")
    if not 0 <= ncp < math.inf:
        raise MalformedValue(f"ncp must be finite and >= 0, got {ncp!r}")
    if ncp == 0.0:
        out = np.ones_like(s_arr)
        return float(out) if np.ndim(s) == 0 else out
    b = df / 2.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # 2 sqrt z for z = ncp s / 4, formed so that it stays finite
        root = math.sqrt(ncp) * np.sqrt(s_arr)
        direct = root <= 700.0
        out = math.exp(-ncp / 2.0) * special.hyp0f1(b, np.where(direct, ncp * s_arr / 4.0, 0.0))
        redo = ~(direct & (out > 0.0) & (out < np.inf)) & (s_arr > 0.0)
        if redo.any():
            # log 0F1(;b;z) = gammaln(b) + (1-b) log(sqrt z) + log I_{b-1}(2 sqrt z)
            log_bessel = np.log(special.ive(b - 1.0, root))
            # past the Bessel routine's range (root above about 1e9), two terms
            # of its large-argument expansion, with error of order (b-1)^4 / root^2
            expansion = -0.5 * np.log(2.0 * np.pi * root) - (4.0 * (b - 1.0) ** 2 - 1.0) / (8.0 * root)
            log_bessel = np.where(np.isnan(log_bessel), expansion, log_bessel)
            log_0f1 = special.gammaln(b) + (1.0 - b) * np.log(root / 2.0) + log_bessel + root
            out = np.where(redo, np.exp(log_0f1 - ncp / 2.0), out)
    out = np.where(np.isinf(s_arr), np.inf, out)
    return float(out) if np.ndim(s) == 0 else out
