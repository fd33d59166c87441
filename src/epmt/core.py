"""Input validation, rejection results, error accounting, and pool_map,
the one process pool, on which the campaign harness runs its batches.

p-values live in [0, 1]; e-values live in [0, +inf] with infinity allowed
and meaningful (conclusive evidence). NaN is rejected everywhere.
"""

from __future__ import annotations

import sys
import warnings
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


def pool_map(fn, items, workers: int):
    """fn(item) for each item, in item order, as an iterator.

    sim.run_campaign is the one caller. With workers > 1, where the
    platform can fork, the items run on that many forked processes, every
    one forked before this returns. A forked worker inherits fn and what
    it closes over, so only items and results are pickled, and imports
    nothing again: two workers on a one-replicate campaign took 0.02 s
    forked and 0.6 s spawned on a 2-CPU Xeon. The pool forks before it
    starts a thread, and the command line starts no OpenBLAS threads (see
    __main__). A worker's warnings are issued again here, in item order,
    those of an item that raised before its exception. Otherwise, as on
    Windows, this is map(fn, items).
    """
    if workers > 1:
        # loaded only here: a serial run never loads the pool modules
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            results = _pooled(fn, items, workers, multiprocessing.get_context("fork"))
            next(results)
            return results
    return map(fn, items)


def _pooled(fn, items, workers: int, context):
    """Yields once every item is submitted, then pool_map's results."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=context, initializer=_set_task, initargs=(fn,)) as pool:
        results = pool.map(_run_task, items)
        yield
        # one registry for every item: a warning shown once per location is
        # shown once, as in a serial run, not once per worker; the module
        # name lets a filter that names one match as it did there
        registry = {}
        modules = {getattr(module, "__file__", None): name for name, module in list(sys.modules.items())}
        for result, raised, caught in results:
            for message, filename, lineno in caught:
                warnings.warn_explicit(message, type(message), filename, lineno, modules.get(filename), registry)
            if raised is not None:
                raise raised
            yield result


# The function a pool worker runs, set once per worker process by _set_task.
_task = None


def _set_task(fn):
    global _task
    _task = fn


def _run_task(item):
    """(result, exception, warnings) of _task(item) in a pool worker.

    The exception is the one the task raised, else None. The warnings are
    recorded under the worker's filters, which are the caller's (an error
    filter still raises), as (message, filename, lineno), for the caller
    to issue again, and to issue before it raises the task's exception,
    as a serial run does.
    """
    result = raised = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = _task(item)
        except Exception as exc:  # raised again by the caller
            raised = exc
    return result, raised, [(w.message, w.filename, w.lineno) for w in caught]
