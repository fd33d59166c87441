"""Scenario generators and the replicated error-rate harness, which owns
the one process pool of the package (_pool_map).

Every generator takes (scenario, rng) and returns (p, e, is_null) in a
fixed draw order, so a replicate is fully determined by its child seed.
Child seeds mix (master seed, scenario index, replicate index) through
numpy's SeedSequence, which makes campaign results bit-identical for any
parallelism level.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Union

import numpy as np
from scipy import special

from .constructors import (
    ModeratedTModel,
    chisq_lr_evalue,
    fit_gamma,
    fit_limma_hyperparameters,
    moderated_t,
    moderated_t_evalue,
)
from .core import ErrorMetrics, MalformedValue, fdp_and_power
from .procedures import ProcedureSpec

# Calibration of the location arm in the microarray scenario: non-null
# z-scores are shifted by this multiple of the scenario effect, chosen so
# the unweighted step-up baseline at alpha = 0.1 with 20% non-nulls has
# moderate, increasing power over effects in [0.3, 0.9].
ZSHIFT_PER_EFFECT = 4.0


@dataclass(frozen=True)
class TTestScenario:
    """Two-sample location testing with a variance side statistic.

    Each hypothesis draws two unit-variance normal samples of 5; the
    non-null fraction gets a location shift of `effect`. The p-value is
    the classical equal-variance two-sided t-test on 8 df. The e-value
    is the chi-square likelihood ratio of the sum of squared deviations
    around the grand mean, which is chisq(9) under the null and
    noncentral under a location shift, and is independent of the
    t-statistic under the null.

    The design is fixed: the null distribution of the side statistic is
    derived for exactly 5 per group and 9 df, so neither is a field.

    null_e_scale inflates the null e-values multiplicatively to study
    how error control degrades when the e-values are misspecified.
    """

    n_hypotheses: int = 2000
    null_fraction: float = 0.95
    effect: float = 2.5
    ncp: float = 10.0
    null_e_scale: float = 1.0

    def __post_init__(self):
        _check_common(self.n_hypotheses, self.null_fraction)
        if not 0.0 <= self.ncp < math.inf:
            raise ValueError("ncp must be finite and >= 0")
        if self.null_e_scale <= 0:
            raise ValueError("null_e_scale must be positive")


@dataclass(frozen=True)
class MicroarrayScenario:
    """Two-platform expression screen on summary statistics.

    The e-value arm mimics a 20 vs 20 microarray comparison: per-gene
    variances are scaled inverse chi-square with (df_prior, s2_prior),
    coefficient estimates are normal with variance var_factor * sigma2
    (var_factor = 1/20 + 1/20), and sample variances carry df = 38.
    A non-null gene carries an e-value-arm effect only with probability
    informative_fraction; when it does, beta ~ N(0, effect_var_ratio *
    sigma2). e-values are moderated-t likelihood ratios with
    hyperparameters re-fit on each replicate (set refit_hyperparameters
    False to use the generating values and effect_var_ratio as gamma).

    The p-value arm is an independent location test: non-null genes draw
    z ~ N(ZSHIFT_PER_EFFECT * effect, 1), nulls draw N(0, 1), and p is
    the two-sided tail. Independence between the arms (given the shared
    truth assignment) is what the weighted procedures rely on.
    """

    n_hypotheses: int = 2000
    null_fraction: float = 0.8
    effect: float = 0.6
    informative_fraction: float = 1.0
    df_prior: float = 3.64
    s2_prior: float = 0.0144
    effect_var_ratio: float = 0.5
    n_per_group: int = 20
    refit_hyperparameters: bool = True

    def __post_init__(self):
        _check_common(self.n_hypotheses, self.null_fraction)
        if not 0.0 <= self.informative_fraction <= 1.0:
            raise ValueError("informative_fraction must lie in [0, 1]")
        if self.df_prior <= 0 or self.s2_prior <= 0:
            raise ValueError("df_prior and s2_prior must be positive")
        if self.effect_var_ratio < 0:
            raise ValueError("effect_var_ratio must be >= 0")
        if self.n_per_group < 2:
            raise ValueError("n_per_group must be >= 2")
        if self.refit_hyperparameters and self.n_hypotheses < 2:
            raise ValueError("refit_hyperparameters needs n_hypotheses >= 2 to fit a variance prior")


@dataclass(frozen=True)
class AdversarialScenario:
    """All-null e-values driven by a single shared uniform draw.

    Stress scenario for e-value procedures under extreme positive
    dependence; p-values are not generated. level sets the scale of the
    firing thresholds (see generate_adversarial_replicate).
    """

    n_hypotheses: int = 50
    level: float = 0.1

    def __post_init__(self):
        if self.n_hypotheses < 2:
            raise ValueError("need at least two hypotheses")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie strictly in (0, 1)")


Scenario = Union[TTestScenario, MicroarrayScenario, AdversarialScenario]


def _check_common(n_hypotheses: int, null_fraction: float):
    if n_hypotheses < 1:
        raise ValueError("need at least one hypothesis")
    if not 0.0 <= null_fraction <= 1.0:
        raise ValueError("null_fraction must lie in [0, 1]")


def generate_ttest_replicate(scenario: TTestScenario, rng: np.random.Generator):
    """One replicate of the t-test scenario: (p, e, is_null)."""
    k_total = scenario.n_hypotheses
    k_null = round(k_total * scenario.null_fraction)
    is_null = np.arange(k_total) < k_null
    n = 5
    # one row per draw within a sample, one column per hypothesis
    x = rng.standard_normal((k_total, n)).T.copy()
    x += np.where(is_null, 0.0, scenario.effect)
    y = rng.standard_normal((k_total, n)).T.copy()
    # a sum over axis 0 adds the n draws in draw order
    x_mean = x.sum(axis=0) / n
    y_mean = y.sum(axis=0) / n
    # sample variances, i.e. within-group sums of squares over n - 1
    dev = x - x_mean
    dev *= dev
    sx = dev.sum(axis=0) / (n - 1)
    np.subtract(y, y_mean, out=dev)
    dev *= dev
    sy = dev.sum(axis=0) / (n - 1)
    # a huge effect or null_e_scale overflows squares and e-values to inf,
    # which is their value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.sqrt(float(n)) * (y_mean - x_mean) / np.sqrt(sx + sy)
        p = 2.0 * special.stdtr(2 * n - 2, -np.abs(t))
        # total sum of squares around the grand mean: chisq(2n - 1) under the null
        grand = 0.5 * (x_mean + y_mean)
        x -= grand
        x *= x
        y -= grand
        y *= y
        e = chisq_lr_evalue(x.sum(axis=0) + y.sum(axis=0), 2 * n - 1, scenario.ncp)
        if scenario.null_e_scale != 1.0:
            e = np.where(is_null, scenario.null_e_scale * e, e)
    return p, e, is_null


def generate_microarray_replicate(scenario: MicroarrayScenario, rng: np.random.Generator):
    """One replicate of the microarray scenario: (p, e, is_null)."""
    k_total = scenario.n_hypotheses
    k_null = round(k_total * scenario.null_fraction)
    n_alt = k_total - k_null
    is_null = np.ones(k_total, dtype=bool)
    alt_idx = rng.choice(k_total, size=n_alt, replace=False)
    is_null[alt_idx] = False

    n = scenario.n_per_group
    var_factor = 2.0 / n
    df = 2 * n - 2
    sigma2 = scenario.df_prior * scenario.s2_prior / rng.chisquare(scenario.df_prior, k_total)
    beta = np.zeros(k_total)
    informative = rng.random(n_alt) < scenario.informative_fraction
    hit = alt_idx[informative]
    beta[hit] = rng.standard_normal(hit.size) * np.sqrt(scenario.effect_var_ratio * sigma2[hit])
    beta_hat = beta + rng.standard_normal(k_total) * np.sqrt(var_factor * sigma2)
    s_sq = sigma2 * rng.chisquare(df, k_total) / df

    if scenario.refit_hyperparameters:
        model = ModeratedTModel(var_factor, df, *fit_limma_hyperparameters(s_sq, df), gamma=0.0)
        t_tilde = moderated_t(beta_hat, s_sq, model)
        model = replace(model, gamma=fit_gamma(t_tilde, model))
    else:
        model = ModeratedTModel(var_factor, df, scenario.df_prior, scenario.s2_prior, gamma=scenario.effect_var_ratio)
        t_tilde = moderated_t(beta_hat, s_sq, model)
    e = moderated_t_evalue(t_tilde, model)

    # independent location arm for the p-values
    z = rng.standard_normal(k_total) + np.where(is_null, 0.0, ZSHIFT_PER_EFFECT * scenario.effect)
    p = 2.0 * special.ndtr(-np.abs(z))
    return p, e, is_null


def generate_adversarial_replicate(scenario: AdversarialScenario, rng: np.random.Generator):
    """One replicate of maximally dependent null e-values: (p, e, is_null).

    Each coordinate is e_k = (1/a_k) * 1{U <= a_k} for a fixed threshold
    a_k and a single U ~ Uniform(0, 1): every coordinate has mean exactly
    1, and the joint is comonotone, as far from positive regression
    dependence as it gets. Four fifths of the thresholds sit at
    0.9 * level, the rest on an increasing ladder up to it. At K = 50 and
    level 0.1, the 41 at 0.9 * level alone give k * e_(k) / K = 9.11 < 10;
    e-BH at that level rejects, with false discovery proportion 1, exactly
    when U <= 0.45 * level, when 46 or more coordinates fire. p is all NaN.
    """
    k_total, level = scenario.n_hypotheses, scenario.level
    thresholds = np.full(k_total, 0.9 * level)
    n_ladder = max(1, k_total // 5)
    thresholds[:n_ladder] = 0.9 * level * np.arange(1, n_ladder + 1) / n_ladder
    u = rng.random()
    e = np.where(u <= thresholds, 1.0 / thresholds, 0.0)
    return np.full(k_total, np.nan), e, np.ones(k_total, dtype=bool)


def generate_replicate(scenario: Scenario, rng: np.random.Generator):
    """Dispatch to the scenario's generator."""
    if isinstance(scenario, TTestScenario):
        return generate_ttest_replicate(scenario, rng)
    if isinstance(scenario, MicroarrayScenario):
        return generate_microarray_replicate(scenario, rng)
    if isinstance(scenario, AdversarialScenario):
        return generate_adversarial_replicate(scenario, rng)
    raise TypeError(f"unknown scenario type {type(scenario).__name__}")


def child_rng(master_seed: int, scenario_index: int, replicate_index: int) -> np.random.Generator:
    """Deterministic per-replicate generator, independent of scheduling.

    The triple is mixed through numpy's SeedSequence entropy pipeline, so
    consecutive replicate indices give statistically independent streams
    and the mapping never depends on how replicates are distributed over
    workers.
    """
    seq = np.random.SeedSequence((int(master_seed), int(scenario_index), int(replicate_index)))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated error rates of a simulation campaign.

    metrics maps (scenario index, procedure name) to the ErrorMetrics of
    that pair, in input order. replicate_stats maps the same keys to an
    array of shape (replicates, 4) holding per-replicate (fdp, power, any
    false rejection, false rejections), the columns whose means are the
    metrics' fdr, power, fwer and pfer. Each array is a view into one
    block shared by every key.
    """

    metrics: dict
    replicate_stats: dict


def _replicate_batch(args):
    scenario, specs, master_seed, scenario_index, rep_indices = args
    runners = [spec.build() for spec in specs]
    out = np.empty((len(rep_indices), len(runners), 4))
    for row, rep in enumerate(rep_indices):
        try:
            p, e, is_null = generate_replicate(scenario, child_rng(master_seed, scenario_index, rep))
            for col, run in enumerate(runners):
                fdp, power, n_false = fdp_and_power(run(p, e).mask, is_null)
                out[row, col] = (fdp, power, float(n_false > 0), float(n_false))
        except (MalformedValue, MemoryError) as exc:
            # the config passed its checks, yet its values drew numbers that no
            # kernel accepts, or more than memory holds: as bad a config as one
            # a check refuses
            raise ConfigError(f"scenario {_scenario_label(scenario, scenario_index)} replicate {rep}: {exc}") from None
    return out


def run_campaign(
    scenarios,
    procedures,
    replicates: int,
    master_seed: int = 0,
    parallelism: int = 1,
) -> CampaignResult:
    """Measure error rates of procedures across scenarios by replication.

    scenarios is a sequence of scenario dataclasses; procedures a
    sequence of ProcedureSpec. Each (scenario, replicate) pair gets its
    own child generator derived from (master_seed, scenario index,
    replicate index), so results are bit-identical for every parallelism
    level; aggregation sums per-replicate statistics in replicate order.
    The tasks run through _pool_map, on at most parallelism forked
    workers and never more than there are tasks, so stderr does not
    depend on the parallelism level either. Every replicate's statistics
    go into one block, allocated before any task runs, or else raises
    TooManyReplicates.
    """
    scenarios = list(scenarios)
    specs = list(procedures)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if not scenarios or not specs:
        raise ValueError("need at least one scenario and one procedure")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("procedure names must be unique within a campaign")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    for index, scenario in enumerate(scenarios):
        # the largest array a replicate draws, a t-test sample's 5 float64 per
        # hypothesis, would pass the bytes that numpy can index
        if scenario.n_hypotheses > np.iinfo(np.intp).max // 40:
            label = _scenario_label(scenario, index)
            raise ConfigError(f"scenario {label}: n_hypotheses {scenario.n_hypotheses} is too large")
    try:
        stats = np.empty((len(scenarios), replicates, len(specs), 4))
    except (MemoryError, ValueError) as exc:  # numpy cannot allocate or index the block
        raise TooManyReplicates(str(exc)) from None

    # each scenario's replicates split into parallelism contiguous ranges
    size = -(-replicates // parallelism)
    chunks = [range(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]
    tasks = [(scenario, specs, master_seed, index, reps) for index, scenario in enumerate(scenarios) for reps in chunks]
    # _replicate_batch is looked up here, where a tracer may have wrapped it
    for (*_, index, reps), batch in zip(tasks, _pool_map(_replicate_batch, tasks, min(parallelism, len(tasks)))):
        stats[index, reps.start : reps.stop] = batch
    replicate_stats = {
        (index, spec.name): stats[index, :, col] for index in range(len(scenarios)) for col, spec in enumerate(specs)
    }
    metrics = {key: _aggregate(per_rep) for key, per_rep in replicate_stats.items()}
    return CampaignResult(metrics, replicate_stats)


def _pool_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], on workers forked processes where the
    platform can fork and workers > 1, else (as on Windows) in this one.

    Worker s runs items s, s + workers, ... and pickles their outcomes to
    its pipe; this process only waits, reading each pipe to its end in
    worker order. A worker inherits fn and what it closes over, so only
    results cross, and imports nothing again: two workers on a
    one-replicate campaign took 0.02 s forked and 0.6 s spawned on a 2-CPU
    Xeon. No thread is started, and the command line starts no OpenBLAS
    threads (see __main__), so each fork copies a one-thread process. A
    worker that dies or sends nothing raises RuntimeError, and no worker
    outlives the call. Worker warnings are issued again here, in item
    order, a raising item's before its exception.
    """
    if workers <= 1 or not hasattr(os, "fork"):
        return list(map(fn, items))
    done = [None] * len(items)
    children = {}  # pid -> the read end of its pipe, for each worker not yet reaped
    try:
        for share in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                code = 1
                try:
                    with open(write, "wb") as pipe:
                        pickle.dump([_run_task(fn, item) for item in items[share::workers]], pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    # never return into the caller, nor run its exit handlers
                    os._exit(code)
            # closed at once, so a later worker does not hold it open
            os.close(write)
            children[pid] = open(read, "rb")
        for share, (pid, pipe) in enumerate(list(children.items())):
            with pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status or not sent:
                raise RuntimeError(f"worker process {pid} ended with wait status {status} before sending its results")
            done[share::workers] = pickle.loads(sent)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # one registry for every item: a warning shown once per location is
    # shown once, as in a serial run, not once per worker; the module name
    # lets a filter that names one match as it did there
    registry = {}
    modules = {getattr(module, "__file__", None): name for name, module in list(sys.modules.items())}
    for _, raised, caught in done:
        for message, filename, lineno in caught:
            warnings.warn_explicit(message, type(message), filename, lineno, modules.get(filename), registry)
        if raised is not None:
            raise raised
    return [result for result, _, _ in done]


def _run_task(fn, item):
    """(result, exception, warnings) of fn(item) in a pool worker.

    The exception is the one the task raised, else None. The warnings are
    recorded under the worker's filters, which are the caller's (an error
    filter still raises), as (message, filename, lineno), for the caller
    to issue again, and to issue before it raises the task's exception,
    as a serial run does.
    """
    result = raised = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = fn(item)
        except Exception as exc:  # raised again by the caller
            raised = exc
    return result, raised, [(w.message, w.filename, w.lineno) for w in caught]


def _aggregate(per_rep: np.ndarray) -> ErrorMetrics:
    # per_rep columns are in ErrorMetrics' order: fdr, power, fwer, pfer
    replicates = len(per_rep)
    means = [float(column.mean()) for column in per_rep.T]
    ses = [float(column.std(ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0 for column in per_rep.T]
    return ErrorMetrics(*means, *ses, replicates)


SCENARIO_KINDS = {
    "ttest": TTestScenario,
    "microarray": MicroarrayScenario,
    "adversarial": AdversarialScenario,
}
_KINDS = {cls: kind for kind, cls in SCENARIO_KINDS.items()}


class ConfigError(ValueError):
    """A simulate config that cannot run; the message names the key, or the
    scenario (and replicate) whose draws a kernel or numpy refused."""


class TooManyReplicates(ValueError):
    """A replicate count whose statistics numpy cannot allocate or index."""


@dataclass(frozen=True)
class _Defaults:
    """The top-level config keys besides the two lists."""

    alpha: float = ProcedureSpec.alpha
    tau: float = ProcedureSpec.tau


# config field annotation -> (accepted JSON value types, name in messages)
_FIELD_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def _build(cls, mapping: dict, prefix: str, describe):
    """cls(**mapping), or a ConfigError starting with prefix.

    Refused in order: a key that is no field, a value of the wrong JSON
    type, then what cls's own checks refuse; describe(key) names a key.
    true is no count or number, and json's NaN and Infinity pass every
    range check, so a number must also be finite.
    """
    fields = cls.__dataclass_fields__
    extra = sorted(set(mapping) - set(fields))
    if extra:
        raise ConfigError(f"{prefix}unknown {describe(extra[0])}")
    for key, value in mapping.items():
        types, type_name = _FIELD_TYPES[fields[key].type]
        typed = isinstance(value, types) and isinstance(value, bool) == (types is bool)
        if not typed or (isinstance(value, float) and not math.isfinite(value)):
            raise ConfigError(f"{prefix}{describe(key)} must be {type_name}, got {value!r}")
    try:
        return cls(**mapping)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc.args[0]}") from None


def scenario_from_dict(mapping: dict) -> Scenario:
    """Build a scenario from config keys, which mirror the dataclass fields,
    or raise ConfigError naming the key it refuses."""
    kind = mapping.get("kind")
    if not isinstance(kind, str) or kind not in SCENARIO_KINDS:
        known = ", ".join(sorted(SCENARIO_KINDS))
        raise ConfigError(f"scenario config: key 'kind' must be one of {known}, got {kind!r}")
    values = {key: value for key, value in mapping.items() if key != "kind"}
    return _build(
        SCENARIO_KINDS[kind], values, "scenario config: ", lambda key: f"scenario key {key!r} for kind {kind!r}"
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    return {"kind": _KINDS[type(scenario)], **asdict(scenario)}


def _scenario_label(scenario: Scenario, index: int) -> str:
    """The scenario's name in the simulate CSV and in messages: kind-index."""
    return f"{_KINDS[type(scenario)]}-{index}"


def _config_list(config: dict, key: str, kinds, described: str) -> list:
    """The nonempty list under a config key, each item one of kinds."""
    value = config.get(key)
    if value is None or value == []:
        raise ConfigError(f"config key {key!r} is missing or empty")
    if not isinstance(value, list) or not all(isinstance(item, kinds) for item in value):
        raise ConfigError(f"config key {key!r} must be a list of {described}")
    return value


def campaign_from_config(config) -> tuple:
    """(scenarios, procedure specs) of a parsed `simulate` config.

    Raises ConfigError naming the first key that cannot run. A procedure
    name may appear once, since results are keyed by it.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    lists = ("scenarios", "procedures")
    top = {key: value for key, value in config.items() if key not in lists}
    defaults = asdict(_build(_Defaults, top, "", lambda key: f"config key {key!r}"))
    scenarios = [scenario_from_dict(entry) for entry in _config_list(config, "scenarios", dict, "objects")]
    specs = []
    for entry in _config_list(config, "procedures", (str, dict), "names or objects"):
        if isinstance(entry, str):
            entry = {"name": entry}
        if "name" not in entry:
            raise ConfigError("each procedure entry must be a name or an object with 'name'")
        prefix = f"procedure {entry['name']!r}: "
        spec = _build(ProcedureSpec, {**defaults, **entry}, prefix, lambda key: f"key {key!r}")
        if any(other.name == spec.name for other in specs):
            raise ConfigError(f"procedure {spec.name!r} appears twice; procedure names must be unique")
        specs.append(spec)
    needs_p = [spec.name for spec in specs if spec.needs_p]
    adversarial = [index for index, s in enumerate(scenarios) if isinstance(s, AdversarialScenario)]
    if needs_p and adversarial:
        message = f"scenario adversarial-{adversarial[0]} generates no p-values, but procedure {needs_p[0]} needs them"
        raise ConfigError(message)
    return scenarios, specs
