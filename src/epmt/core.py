"""Input validation, rejection results and error accounting.

p-values live in [0, 1]; e-values live in [0, +inf] with infinity allowed
and meaningful (conclusive evidence). NaN is rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EmptyInput(ValueError):
    """No hypotheses were given."""


class LengthMismatch(ValueError):
    """Paired per-hypothesis vectors disagree in length."""


class MalformedValue(ValueError):
    """A p-value or e-value failed validation.

    Carries the offending record id (or index) when known.
    """

    def __init__(self, message: str, record_id=None):
        super().__init__(message)
        self.record_id = record_id


def as_pvector(p) -> np.ndarray:
    """Coerce to a 1-d float array of valid p-values."""
    return _as_vector(p, "p", 1.0, "[0, 1]")


def as_evector(e) -> np.ndarray:
    """Coerce to a 1-d float array of valid e-values (+inf allowed)."""
    return _as_vector(e, "e", np.inf, "[0, +inf]")


def _as_vector(values, kind: str, upper: float, interval: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise MalformedValue(f"{kind}-values must form a 1-d vector")
    if arr.size == 0:
        raise EmptyInput("no hypotheses given")
    # NaN propagates through both reductions and fails both comparisons;
    # the mask that names the first bad position is built only on failure
    if not (np.minimum.reduce(arr) >= 0.0 and np.maximum.reduce(arr) <= upper):
        i = int(np.argmax(~((arr >= 0.0) & (arr <= upper))))
        raise MalformedValue(f"{kind}-value out of {interval} at position {i}: {arr[i]!r}", i)
    return arr


def as_pair(p, e) -> tuple[np.ndarray, np.ndarray]:
    """Coerce paired p- and e-values to valid vectors of one length."""
    p, e = as_pvector(p), as_evector(e)
    if p.size != e.size:
        raise LengthMismatch(f"per-hypothesis vectors disagree in length: {sorted((p.size, e.size))}")
    return p, e


@dataclass(frozen=True)
class RejectionResult:
    """Outcome of a multiple-testing procedure.

    mask flags the rejected hypotheses in input order; adjusted is the
    per-hypothesis statistic the decision was made on. The step-up index
    k* always equals the number of rejections, so both are read off the
    mask.
    """

    mask: np.ndarray
    adjusted: np.ndarray

    @property
    def threshold_index(self) -> int:
        """The step-up k*, 0 when nothing is rejected."""
        return int(np.count_nonzero(self.mask))

    @property
    def rejected(self) -> frozenset:
        """Input-order indices of the rejected hypotheses."""
        return frozenset(np.flatnonzero(self.mask).tolist())


def fdp_and_power(mask, truth) -> tuple[float, float, int]:
    """False discovery proportion, power and false rejections of one mask.

    truth flags nulls (True = null hypothesis). Both ratios use the
    0/0 = 0 convention: no rejections means FDP 0, no non-nulls means
    power 0.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise TypeError(f"rejection mask must be boolean, got dtype {mask.dtype}")
    truth = np.asarray(truth, dtype=bool)
    if truth.ndim != 1 or mask.shape != truth.shape:
        raise LengthMismatch("rejection mask and truth must be 1-d vectors of one length")
    n_rej = int(np.count_nonzero(mask))
    n_false = int(np.count_nonzero(mask & truth))
    n_alt = truth.size - int(np.count_nonzero(truth))
    fdp = n_false / n_rej if n_rej else 0.0
    power = (n_rej - n_false) / n_alt if n_alt else 0.0
    return fdp, power, n_false


@dataclass(frozen=True)
class ErrorMetrics:
    """Replicated error rates of one procedure under one scenario.

    fdr and power are means of per-replicate FDP and true positive rate;
    fwer is the share of replicates with at least one false rejection;
    pfer is the mean count of false rejections. The se_* fields are
    standard errors of the corresponding means over replicates.
    """

    fdr: float
    power: float
    fwer: float
    pfer: float
    se_fdr: float
    se_power: float
    se_fwer: float
    se_pfer: float
    replicates: int
