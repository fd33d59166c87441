"""Scenario generators and the replicated error-rate harness.

Every generator takes (scenario, rng) and returns (p, e, is_null) in a
fixed draw order, so a replicate is fully determined by its child seed.
Child seeds mix (master seed, scenario index, replicate index) through
numpy's SeedSequence, which makes campaign results bit-identical for any
parallelism level.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
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
from .core import ErrorMetrics, fdp_and_power
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

    The group size and sum-of-squares df are fixed at 5 and 9: the null
    distribution of the side statistic is derived for exactly this
    design, so other sizes are refused rather than silently generalized.

    null_e_scale inflates the null e-values multiplicatively to study
    how error control degrades when the e-values are misspecified.
    """

    n_hypotheses: int = 2000
    null_fraction: float = 0.95
    effect: float = 2.5
    n_per_group: int = 5
    ssq_df: int = 9
    ncp: float = 10.0
    null_e_scale: float = 1.0

    def __post_init__(self):
        _check_common(self.n_hypotheses, self.null_fraction)
        if self.n_per_group != 5 or self.ssq_df != 9:
            raise ValueError(
                "the t-test scenario supports exactly n_per_group=5 with ssq_df=9; "
                f"got n_per_group={self.n_per_group}, ssq_df={self.ssq_df}"
            )
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
    n = scenario.n_per_group
    shift = np.where(is_null, 0.0, scenario.effect)
    x = rng.standard_normal((k_total, n)) + shift[:, None]
    y = rng.standard_normal((k_total, n))
    x_mean = x.mean(axis=1)
    y_mean = y.mean(axis=1)
    # sample variances, i.e. within-group sums of squares over n - 1
    sx = x.var(axis=1, ddof=1)
    sy = y.var(axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sqrt(float(n)) * (y_mean - x_mean) / np.sqrt(sx + sy)
    p = 2.0 * special.stdtr(2 * n - 2, -np.abs(t))
    # total sum of squares around the grand mean: chisq(2n - 1) under the null
    grand = 0.5 * (x_mean + y_mean)
    ssq = ((x - grand[:, None]) ** 2).sum(axis=1) + ((y - grand[:, None]) ** 2).sum(axis=1)
    e = chisq_lr_evalue(ssq, scenario.ssq_df, scenario.ncp)
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
        df_prior_hat, s2_prior_hat = fit_limma_hyperparameters(s_sq, df)
    else:
        df_prior_hat, s2_prior_hat = scenario.df_prior, scenario.s2_prior
    model = ModeratedTModel(var_factor, df, df_prior_hat, s2_prior_hat, gamma=0.0)
    t_tilde, _ = moderated_t(beta_hat, s_sq, model)
    if scenario.refit_hyperparameters:
        gamma_hat = fit_gamma(t_tilde, model)
    else:
        gamma_hat = scenario.effect_var_ratio
    e = moderated_t_evalue(t_tilde, replace(model, gamma=gamma_hat))

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
    0.9 * level (a block whose simultaneous firing is just rejectable by
    the e-value step-up at that level), the rest on an increasing ladder
    below it, so the realized false discovery proportion is 1 with
    probability close to 0.45 * level. p is all NaN.
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
        rng = child_rng(master_seed, scenario_index, rep)
        try:
            p, e, is_null = generate_replicate(scenario, rng)
        except Exception as exc:
            raise RuntimeError(
                f"scenario {scenario_index} replicate {rep} failed during generation"
            ) from exc
        for col, run in enumerate(runners):
            fdp, power, n_false = fdp_and_power(run(p, e).mask, is_null)
            out[row, col] = (fdp, power, float(n_false > 0), float(n_false))
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

    # each scenario's replicates split into parallelism contiguous ranges
    size = -(-replicates // parallelism)
    chunks = [range(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]
    tasks = [(scenario, specs, master_seed, index, reps) for index, scenario in enumerate(scenarios) for reps in chunks]
    if parallelism == 1:
        blocks = list(map(_replicate_batch, tasks))
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            blocks = list(pool.map(_replicate_batch, tasks))
    # blocks come back in task order: each scenario's replicates in order
    replicate_stats = {
        (scenario_index, spec.name): stats_array[:, col, :]
        for scenario_index, stats_array in enumerate(np.split(np.concatenate(blocks), len(scenarios)))
        for col, spec in enumerate(specs)
    }
    metrics = {key: _aggregate(per_rep) for key, per_rep in replicate_stats.items()}
    return CampaignResult(metrics, replicate_stats)


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

# config field annotation -> (accepted JSON value types, name in messages)
_FIELD_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def check_field_types(cls, values: dict, describe):
    """Refuse a config value whose JSON type does not fit its field of cls.

    describe(key) names the key in the message. bool subclasses int, but
    true is neither a count nor a number; json reads NaN and Infinity,
    which pass every range check, so a number must also be finite.
    """
    fields = cls.__dataclass_fields__
    for key, value in values.items():
        types, type_name = _FIELD_TYPES[fields[key].type]
        typed = isinstance(value, types) and isinstance(value, bool) == (types is bool)
        if not typed or (isinstance(value, float) and not math.isfinite(value)):
            raise TypeError(f"{describe(key)} must be {type_name}, got {value!r}")


def scenario_from_dict(mapping: dict) -> Scenario:
    """Build a scenario from config keys; keys mirror the dataclass fields."""
    if "kind" not in mapping:
        raise KeyError("scenario config needs a 'kind' key")
    kind = mapping["kind"]
    if kind not in SCENARIO_KINDS:
        raise KeyError(f"unknown scenario kind {kind!r}; known: {', '.join(sorted(SCENARIO_KINDS))}")
    cls = SCENARIO_KINDS[kind]
    fields = cls.__dataclass_fields__
    values = {k: v for k, v in mapping.items() if k != "kind"}
    extra = set(values) - set(fields)
    if extra:
        raise KeyError(f"unknown scenario key {sorted(extra)[0]!r} for kind {kind!r}")
    check_field_types(cls, values, lambda key: f"scenario key {key!r} for kind {kind!r}")
    return cls(**values)


def scenario_to_dict(scenario: Scenario) -> dict:
    kind = {v: k for k, v in SCENARIO_KINDS.items()}[type(scenario)]
    return {"kind": kind, **asdict(scenario)}
