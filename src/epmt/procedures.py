"""Step-up multiple testing procedures on p-values, e-values, and both.

Every procedure maps its input onto one small-is-significant statistic
and runs the same step-up kernel on it (weighted BH after Genovese,
Roeder & Wasserman 2006; e-BH after Wang & Ramdas 2022):

* p-BH steps up on p and weighted BH on min(p/w, 1); ep-BH is weighted
  BH with the raw e-values as unnormalized weights, and the normalized
  and Storey variants change only the weights;
* e-BH steps up on -e, testing each rank in the e scale, which is p-BH
  on 1/e up to rounding at exact ties; pe-BH is e-BH on h(p) * e, and
  adaptive e-BH is e-BH behind a merged-evidence gate;
* ep-Bonferroni thresholds p/e at alpha/K without a step-up.

All procedures return a RejectionResult whose `adjusted` field is the
per-hypothesis vector the decision was thresholded on, in input order.
Ties at the rejection boundary are always rejected together; the step-up
index k* equals the rejection count by construction (a tied value just
past the boundary would itself satisfy the step-up condition).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .calib import DEFAULT_CALIBRATOR, Calibrator, combine_product, p_over_e, parse_calibrator
from .core import RejectionResult, as_evector, as_pair, as_pvector


class SingleHypothesis(UserWarning):
    """Adaptive e-BH needs at least two hypotheses; fell back to plain e-BH."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    return alpha


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie strictly in (0, 1), got {tau!r}")
    return tau


def _check_merging(merging: str):
    if merging not in ("mean", "max"):
        raise ValueError(f"merging must be 'mean' or 'max', got {merging!r}")


@functools.lru_cache
def harmonic_number(k: int) -> float:
    """Sum of 1/j for j = 1..k, accumulated exactly (no log approximation).

    Cached per k: a campaign asks for the same K every replicate.
    """
    # numpy divides as Python does, correctly rounded; fsum reads a list in
    # about half the time it takes to step a generator
    return math.fsum((1.0 / np.arange(1, k + 1)).tolist())


def _step_up(stat: np.ndarray, passes, adjusted: np.ndarray) -> RejectionResult:
    """The one step-up kernel, on small-is-significant statistics.

    passes(ranked, ranks) tests each rank k of the ascending statistic
    s_(k) in the caller's own scale; k* is the last rank that passes, and
    every s_i <= s_(k*) is rejected.
    """
    ranked = np.sort(stat)
    ok = np.flatnonzero(passes(ranked, np.arange(1, stat.size + 1, dtype=float)))
    mask = stat <= ranked[ok[-1]] if ok.size else np.zeros(stat.size, dtype=bool)
    return RejectionResult(mask, adjusted)


def _bh(stat: np.ndarray, alpha: float, adjusted: np.ndarray) -> RejectionResult:
    # k* = max{k : K * s_(k) <= alpha * k}
    k_total = stat.size
    return _step_up(stat, lambda ranked, ranks: k_total * ranked <= alpha * ranks, adjusted)


def p_bh(p, alpha: float, by_correction: bool = False) -> RejectionResult:
    """Step-up procedure on p-values.

    With by_correction the level is divided by the harmonic number of K,
    which buys validity under arbitrary dependence.
    """
    p = as_pvector(p)
    alpha = _check_alpha(alpha)
    if by_correction:
        alpha = alpha / harmonic_number(p.size)
    return _bh(p, alpha, p)


def e_bh(e, alpha: float) -> RejectionResult:
    """Step-up procedure on e-values; valid under arbitrary dependence.

    This is p_bh on min(1/e, 1) at the same level, except at exact
    step-up ties, which are decided in the e scale; adjusted reports the
    e-values.
    """
    e = as_evector(e)
    alpha = _check_alpha(alpha)
    # steps up on -e (exact, so s_(k) = -e_[k] with e_[k] the k-th largest)
    # and tests k* = max{k : k * e_[k] / K >= 1/alpha} in the e scale
    k_total = e.size

    def passes(ranked, ranks):
        # k * e_[k] past the float maximum is inf, which passes, as it should
        with np.errstate(over="ignore"):
            return ranks * -ranked / k_total >= 1.0 / alpha

    return _step_up(-e, passes, e)


def weighted_p_bh(p, w, alpha: float) -> RejectionResult:
    """Step-up on weighted p-values p/w, capped into [0, 1].

    Weights are nonnegative and need not be normalized; a zero weight
    removes a hypothesis (positive p) from contention.
    """
    p, w = as_pair(p, w)
    alpha = _check_alpha(alpha)
    adjusted = np.minimum(p_over_e(p, w), 1.0)
    return _bh(adjusted, alpha, adjusted)


def normalized_weights(e) -> np.ndarray:
    """Rescale raw e-values to weights averaging 1 (summing to K).

    An all-zero vector yields all-zero weights. If any e-value is +inf,
    the infinite coordinates take all the weight and the rest get 0.
    """
    e = as_evector(e)
    if np.isinf(e).any():
        return np.where(np.isinf(e), np.inf, 0.0)
    # scaling by the power of two at the largest e-value keeps the sum
    # finite and is exact, so weights that did not overflow keep their bits
    e = np.ldexp(e, -np.frexp(e.max())[1])
    total = e.sum()
    if total == 0.0:
        return np.zeros_like(e)
    return e.size * e / total


def weighted_p_bh_normalized(p, e, alpha: float) -> RejectionResult:
    """weighted_p_bh with raw e-values rescaled to average-1 weights."""
    p, e = as_pair(p, e)
    return weighted_p_bh(p, normalized_weights(e), alpha)


def ep_bh(p, e, alpha: float) -> RejectionResult:
    """Step-up on the quotients min(p/e, 1).

    This is weighted_p_bh with the raw e-values as weights: e-values act
    as unnormalized weights without any rescaling. It controls FDR for
    PRDS p-values and e-values independent of them. PAPER.md holds only
    the abstract, so this comes from the standard references, not the
    paper's theorems.
    """
    return weighted_p_bh(p, e, alpha)


def pe_bh(p, e, alpha: float, calibrator: Calibrator = DEFAULT_CALIBRATOR) -> RejectionResult:
    """e-BH on the product e-values h(p) * e.

    e-BH allows arbitrary dependence across hypotheses (Wang and Ramdas
    2022), but h(p_i) * e_i is an e-value only when e_i is valid given
    p_i. It never rejects more than ep_bh does. PAPER.md holds only the
    abstract: these conditions come from the standard references, not
    the paper's theorems.
    """
    return e_bh(combine_product(p, e, calibrator), alpha)


def storey_pi0(p, tau: float = 0.5) -> float:
    """Conservative null-proportion estimate (1 + #{p > tau}) / (K(1-tau))."""
    p = as_pvector(p)
    tau = _check_tau(tau)
    return (1.0 + int((p > tau).sum())) / (p.size * (1.0 - tau))


def ep_storey(p, e, alpha: float, tau: float = 0.5) -> RejectionResult:
    """Null-proportion-adaptive version of ep_bh.

    Hypotheses with p > tau get weight 0; the rest keep their e-values
    scaled up by the estimated null proportion.
    """
    p, e = as_pair(p, e)
    tau = _check_tau(tau)
    with np.errstate(over="ignore"):  # a weight past the float maximum is inf
        w = np.where(p <= tau, e / storey_pi0(p, tau), 0.0)
    return weighted_p_bh(p, w, alpha)


def wbh_storey_normalized(p, e, alpha: float, tau: float = 0.5) -> RejectionResult:
    """Null-proportion-adaptive weighted BH with normalized e-value weights.

    Uses the weight-aware null-proportion estimate
    (1 + sum_k w_k 1{p_k > tau}) / (K(1-tau)), which reduces to the plain
    Storey estimate at unit weights. When normalization concentrates the
    weight on a few hypotheses, this estimate can sit far below 1 and
    recover much of the power that normalization gives up.
    """
    p, e = as_pair(p, e)
    tau = _check_tau(tau)
    w = normalized_weights(e)
    if np.isfinite(w).all():
        pi0 = (1.0 + float((w * (p > tau)).sum())) / (p.size * (1.0 - tau))
    else:
        # all weight sits on the infinite coordinates; the estimate keeps
        # only the additive smoothing term
        pi0 = 1.0 / (p.size * (1.0 - tau))
    with np.errstate(invalid="ignore"):
        w_adaptive = np.where(p <= tau, w / pi0, 0.0)
    return weighted_p_bh(p, w_adaptive, alpha)


def ep_bonferroni(p, e, alpha: float) -> RejectionResult:
    """Reject every hypothesis with p/e <= alpha/K (no step-up).

    Controls both PFER and FWER at alpha * K0 / K. The adjusted vector is
    the uncapped quotient.
    """
    p, e = as_pair(p, e)
    alpha = _check_alpha(alpha)
    adjusted = p_over_e(p, e)
    return RejectionResult(adjusted <= alpha / p.size, adjusted)


def simes_evalue(e) -> float:
    """The e-value analogue of the Simes statistic: max_k k * e_[k] / K."""
    e = as_evector(e)
    ranked = np.sort(e)[::-1]
    ranks = np.arange(1, e.size + 1, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        stats = ranks * ranked / e.size
    return float(np.max(stats))


def adaptive_e_bh(e, alpha: float, merging: str = "mean") -> RejectionResult:
    """e-BH with a merged-evidence gate and a slightly raised level.

    If the merged e-value F(e) falls below 1/alpha, nothing is rejected;
    otherwise plain e-BH runs at K*alpha/(K-1). merging selects F: "mean"
    (arithmetic mean, the default, preserving dominance over e_bh) or
    "max" (the Simes-style statistic).
    """
    e = as_evector(e)
    alpha = _check_alpha(alpha)
    _check_merging(merging)
    k_total = e.size
    if k_total == 1:
        warnings.warn(
            "adaptive e-BH needs at least two hypotheses; falling back to plain e-BH",
            SingleHypothesis,
            stacklevel=2,
        )
        return e_bh(e, alpha)
    with np.errstate(over="ignore"):  # a sum past the float maximum is inf
        merged = float(e.mean()) if merging == "mean" else simes_evalue(e)
    if merged < 1.0 / alpha:
        return RejectionResult(np.zeros(k_total, dtype=bool), e)
    return e_bh(e, k_total * alpha / (k_total - 1.0))


@dataclass(frozen=True)
class ProcedureSpec:
    """A registry name plus the knobs needed to run it.

    calibrator is a spec string ("sqrt" or "kappa:<value>"), not a
    Calibrator, since the simulate manifest records asdict(spec) as JSON.
    merging only matters for adaptive-e-bh; tau only for Storey variants.
    """

    name: str
    alpha: float = 0.1
    tau: float = 0.5
    calibrator: str = "sqrt"
    merging: str = "mean"

    def __post_init__(self):
        if self.name not in REGISTRY:
            raise KeyError(f"unknown procedure {self.name!r}; known: {', '.join(sorted(REGISTRY))}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha!r}")
        _check_tau(self.tau)
        _check_merging(self.merging)
        parse_calibrator(self.calibrator)

    def build(self):
        """Return a callable (p, e) -> RejectionResult."""
        return functools.partial(REGISTRY[self.name][2], self, parse_calibrator(self.calibrator))

    @property
    def needs_p(self) -> bool:
        return REGISTRY[self.name][0]


# name -> (needs_p, needs_e, runner(spec, calibrator, p, e))
REGISTRY = {
    "p-bh": (True, False, lambda s, c, p, e: p_bh(p, s.alpha)),
    "p-bh-by": (True, False, lambda s, c, p, e: p_bh(p, s.alpha, by_correction=True)),
    "e-bh": (False, True, lambda s, c, p, e: e_bh(e, s.alpha)),
    "wbh-normalized": (True, True, lambda s, c, p, e: weighted_p_bh_normalized(p, e, s.alpha)),
    "ep-bh": (True, True, lambda s, c, p, e: ep_bh(p, e, s.alpha)),
    "pe-bh": (True, True, lambda s, c, p, e: pe_bh(p, e, s.alpha, calibrator=c)),
    "ep-storey": (True, True, lambda s, c, p, e: ep_storey(p, e, s.alpha, tau=s.tau)),
    "wbh-storey-normalized": (True, True, lambda s, c, p, e: wbh_storey_normalized(p, e, s.alpha, tau=s.tau)),
    "ep-bonferroni": (True, True, lambda s, c, p, e: ep_bonferroni(p, e, s.alpha)),
    "adaptive-e-bh": (False, True, lambda s, c, p, e: adaptive_e_bh(e, s.alpha, merging=s.merging)),
}
