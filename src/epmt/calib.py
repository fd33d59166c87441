"""Calibrators between p-values and e-values, and pairwise p/e combiners.

A p-to-e calibrator is a decreasing function h on [0, 1] with h(0) = +inf
and unit integral; h(P) is then a valid e-value whenever P is a valid
p-value. The reverse direction admits a single admissible calibrator,
e -> min(1/e, 1).

The combiners merge one p-value and one e-value into a single p-value
(quotient, bonferroni) or e-value (product, mean). The lambda shift
discounts any e-value toward 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_evector, as_pair, as_pvector


class BadLambda(ValueError):
    """A convex-combination weight is outside its legal range."""


class BadCalibrator(ValueError):
    """Unknown calibrator family or illegal family parameter."""


@dataclass(frozen=True)
class Calibrator:
    """Decreasing unit-mass map from p-values to e-values.

    Families:
      "sqrt":  h(p) = p**(-1/2) - 1          (the package default)
      "kappa": h(p) = kappa * p**(kappa - 1) for kappa in (0, 1)

    Both integrate to exactly 1 over [0, 1], are decreasing, and diverge
    at 0, so h(P) has expectation at most 1 when P is a valid p-value.
    """

    family: str
    kappa: float | None = None

    def __post_init__(self):
        if self.family == "sqrt":
            if self.kappa is not None:
                raise BadCalibrator("the sqrt family takes no parameter")
        elif self.family == "kappa":
            if self.kappa is None or not (0.0 < self.kappa < 1.0):
                raise BadCalibrator(f"kappa must lie in (0, 1), got {self.kappa!r}")
        else:
            raise BadCalibrator(f"unknown calibrator family {self.family!r}")

    def __call__(self, p):
        """Turn p-values into e-values h(p); p = 0 maps to +inf.

        p is a scalar or a non-empty 1-d vector; a scalar gives a float.
        """
        arr = as_pvector(p)
        # a small kappa's power of a subnormal p overflows to inf, its value
        with np.errstate(divide="ignore", over="ignore"):
            if self.family == "sqrt":
                out = np.where(arr > 0.0, arr ** -0.5 - 1.0, np.inf)
            else:
                out = np.where(arr > 0.0, self.kappa * arr ** (self.kappa - 1.0), np.inf)
        return float(out[0]) if np.ndim(p) == 0 else out


DEFAULT_CALIBRATOR = Calibrator("sqrt")


def parse_calibrator(spec: str) -> Calibrator:
    """Parse a CLI calibrator spec: "sqrt" or "kappa:<value>"."""
    if spec == "sqrt":
        return Calibrator("sqrt")
    if spec.startswith("kappa:"):
        try:
            kappa = float(spec.split(":", 1)[1])
        except ValueError:
            raise BadCalibrator(f"cannot parse kappa from {spec!r}") from None
        return Calibrator("kappa", kappa)
    raise BadCalibrator(f"unknown calibrator spec {spec!r} (expected sqrt or kappa:<value>)")


def calibrate_e_to_p(e):
    """The unique admissible e-to-p calibrator: min(1/e, 1); +inf gives 0.

    e is a scalar or a non-empty 1-d vector; a scalar gives a float.
    """
    arr = as_evector(e)
    with np.errstate(divide="ignore", over="ignore"):
        # e = 0 of either sign gives 1, e = +inf gives 1/inf = 0
        out = np.where(arr > 0.0, np.minimum(1.0, 1.0 / arr), 1.0)
    return float(out[0]) if np.ndim(e) == 0 else out


def combine_product(p, e, calibrator: Calibrator = DEFAULT_CALIBRATOR):
    """e-value h(p) * e, with the 0 * inf = inf convention.

    The convention keeps a conclusive statistic conclusive: p = 0 (so
    h(p) = inf) beats e = 0, and e = inf beats h(p) = 0.
    """
    p_arr, e_arr, scalar = _paired(p, e)
    hp = calibrator(p_arr)
    with np.errstate(invalid="ignore", over="ignore"):  # a product past the float maximum is inf
        out = np.where(np.isinf(hp) | np.isinf(e_arr), np.inf, hp * e_arr)
    return float(out[0]) if scalar else out


def combine_quotient(p, e):
    """p-value min(p / e, 1), with 0 / 0 = 0.

    A zero p-value stays maximally significant whatever the e-value; a
    zero e-value pushes any positive p-value to 1.
    """
    p_arr, e_arr, scalar = _paired(p, e)
    out = np.minimum(p_over_e(p_arr, e_arr), 1.0)
    return float(out[0]) if scalar else out


def p_over_e(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Uncapped quotient p / e of validated vectors, with 0 / 0 = 0.

    A positive p-value over a zero e-value gives +inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(p == 0.0, 0.0, p / e)


def combine_mean(p, e, calibrator: Calibrator = DEFAULT_CALIBRATOR, weight: float = 0.5):
    """e-value weight * h(p) + (1 - weight) * e, weight strictly in (0, 1)."""
    if not 0.0 < weight < 1.0:
        raise BadLambda(f"mean-combiner weight must lie strictly in (0, 1), got {weight!r}")
    p_arr, e_arr, scalar = _paired(p, e)
    out = weight * calibrator(p_arr) + (1.0 - weight) * e_arr
    return float(out[0]) if scalar else out


def combine_bonferroni(p, e):
    """p-value min(2 * min(p, 1/e), 1): a two-way union bound."""
    p_arr, e_arr, scalar = _paired(p, e)
    out = np.minimum(2.0 * np.minimum(p_arr, calibrate_e_to_p(e_arr)), 1.0)
    return float(out[0]) if scalar else out


def shift_evalue(e, lam: float):
    """Discount an e-value toward 1: lam + (1 - lam) * e, lam in [0, 1].

    Preserves validity (null mean stays <= 1) while flooring the result
    at lam, which protects downstream weighted procedures from zero
    weights. lam = 1 discards the evidence entirely, returning exactly 1
    even at e = +inf. e is a scalar or a non-empty 1-d vector; a scalar
    gives a float.
    """
    if not 0.0 <= lam <= 1.0:  # also refuses NaN
        raise BadLambda(f"shift lambda must lie in [0, 1], got {lam!r}")
    e_arr = as_evector(e)
    if lam == 1.0:
        out = np.ones_like(e_arr)
    else:
        out = lam + (1.0 - lam) * e_arr
    return float(out[0]) if np.ndim(e) == 0 else out


def _paired(p, e) -> tuple[np.ndarray, np.ndarray, bool]:
    scalar = np.ndim(p) == 0 and np.ndim(e) == 0
    return (*as_pair(p, e), scalar)
