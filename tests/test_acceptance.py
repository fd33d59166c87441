"""Acceptance gate: one test per numbered criterion.

Each test prints exactly one `criterion NN: PASS/FAIL` line with the
measured numbers (run pytest with -s to watch them live), then asserts.
Shared Monte-Carlo campaigns are module-scoped fixtures so the whole
suite stays under a minute of compute on one core.

Criterion 7 checks the paper's power claim: e-values used as raw,
unnormalized weights (ep-BH) beat both the unweighted baseline and the
same weights normalized to average 1. The ordering between the baseline
and normalized weighting is printed but not asserted, since it depends
on the effect size; see the package README.
"""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from epmt.calib import Calibrator
from epmt.constructors import (
    ModeratedTModel,
    PermutationStatistics,
    moderated_t,
    moderated_t_evalue,
    soft_rank_evalue,
)
from epmt.procedures import (
    ProcedureSpec,
    SingleHypothesis,
    adaptive_e_bh,
    e_bh,
    ep_bh,
    ep_bonferroni,
    pe_bh,
)
from epmt.sim import (
    MicroarrayScenario,
    AdversarialScenario,
    TTestScenario,
    generate_replicate,
    run_campaign,
)

from test_calib import mass_below
from test_constructors import laguerre_density_ratio

SHIPPED_CALIBRATORS = [
    Calibrator("sqrt"),
    Calibrator("kappa", 0.2),
    Calibrator("kappa", 0.5),
    Calibrator("kappa", 0.8),
]


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _pooled_se(se_a: float, se_b: float) -> float:
    return float(np.hypot(se_a, se_b))


def _random_instance(rng):
    """Adversarially mixed (p, e) pair for subset/dominance properties."""
    k = int(rng.integers(1, 51))
    p = rng.uniform(size=k)
    signal = rng.uniform(size=k) < 0.3
    p = np.where(signal, p * rng.uniform(0.001, 0.2, size=k), p)
    e = np.where(
        rng.uniform(size=k) < 0.5,
        1.0 / np.sqrt(rng.uniform(size=k)) - 1.0,
        rng.exponential(1.0, size=k),
    )
    if rng.uniform() < 0.1:
        p[0] = 0.0
    if rng.uniform() < 0.1:
        e[-1] = 0.0
    if rng.uniform() < 0.1:
        e[int(rng.integers(k))] = np.inf
    return p, e


@pytest.fixture(scope="module")
def ttest_campaign():
    """t-test scenario sweep shared by criteria 2, 6, 7 and 8."""
    scenarios = [TTestScenario(effect=xi) for xi in (1.5, 2.0, 2.5)]
    procedures = [
        ProcedureSpec("p-bh", alpha=0.1),
        ProcedureSpec("ep-bh", alpha=0.1),
        ProcedureSpec("wbh-normalized", alpha=0.1),
        ProcedureSpec("ep-storey", alpha=0.1, tau=0.5),
        ProcedureSpec("wbh-storey-normalized", alpha=0.1, tau=0.5),
    ]
    return run_campaign(scenarios, procedures, replicates=500, master_seed=20260816)


@pytest.fixture(scope="module")
def microarray_campaign():
    """Microarray scenario at both informative fractions (criterion 13)."""
    scenarios = [
        MicroarrayScenario(informative_fraction=0.0),
        MicroarrayScenario(informative_fraction=1.0),
    ]
    procedures = [
        ProcedureSpec("p-bh", alpha=0.1),
        ProcedureSpec("ep-bh", alpha=0.1),
        ProcedureSpec("wbh-normalized", alpha=0.1),
    ]
    return run_campaign(scenarios, procedures, replicates=100, master_seed=77001)


def test_criterion_01_ebh_adversarial_fdr():
    """e-BH keeps FDR under the worst positive dependence we can build."""
    rng = np.random.default_rng(8101)
    reps = 10_000
    fdp = np.empty(reps)
    for i in range(reps):
        _, e, _ = generate_replicate(AdversarialScenario(50, level=0.1), rng)
        fdp[i] = 1.0 if e_bh(e, 0.1).rejected else 0.0
    fdr = fdp.mean()
    se = fdp.std(ddof=1) / np.sqrt(reps)
    bound = 0.1 + 3.0 * se
    _report(1, fdr <= bound, f"adversarial e-BH FDR {fdr:.4f} <= {bound:.4f} (10000 reps)")


def test_criterion_02_epbh_fdr_under_independence(ttest_campaign):
    metric = ttest_campaign.metrics[(2, "ep-bh")]  # effect 2.5
    bound = 0.1 * 0.95 + 3.0 * metric.se_fdr
    _report(
        2,
        metric.fdr <= bound,
        f"ep-BH FDR {metric.fdr:.4f} <= {bound:.4f} (t-test, effect 2.5, 500 reps)",
    )


def test_criterion_03_pebh_subset_of_epbh():
    rng = np.random.default_rng(8103)
    violations = 0
    checked = 0
    for _ in range(1000):
        p, e = _random_instance(rng)
        alpha = float(rng.uniform(0.02, 0.3))
        for cal in SHIPPED_CALIBRATORS:
            inner = pe_bh(p, e, alpha, calibrator=cal).rejected
            outer = ep_bh(p, e, alpha).rejected
            checked += 1
            if not inner <= outer:
                violations += 1
    _report(3, violations == 0, f"{violations} subset violations in {checked} checks")


def test_criterion_04_ebh_subset_of_adaptive():
    rng = np.random.default_rng(8104)
    violations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingleHypothesis)
        for _ in range(1000):
            _, e = _random_instance(rng)
            alpha = float(rng.uniform(0.02, 0.3))
            plain = e_bh(e, alpha).rejected
            adaptive = adaptive_e_bh(e, alpha, merging="mean").rejected
            if not plain <= adaptive:
                violations += 1
    _report(4, violations == 0, f"{violations} dominance violations in 1000 instances")


def test_criterion_05_ep_bonferroni_pfer_fwer():
    scenario = TTestScenario(n_hypotheses=500, null_fraction=1.0)
    rng = np.random.default_rng(8105)
    reps = 10_000
    n_false = np.empty(reps)
    for i in range(reps):
        p, e, is_null = generate_replicate(scenario, rng)
        rejected = ep_bonferroni(p, e, 0.1).rejected
        n_false[i] = sum(1 for j in rejected if is_null[j])
    pfer = n_false.mean()
    se = n_false.std(ddof=1) / np.sqrt(reps)
    fwer = (n_false > 0).mean()
    bound = 0.1 + 3.0 * se
    ok = pfer <= bound and fwer <= pfer
    _report(
        5,
        ok,
        f"ep-Bonferroni PFER {pfer:.4f} <= {bound:.4f}, FWER {fwer:.4f} <= PFER (full null, 10000 reps)",
    )


def test_criterion_06_ep_storey_fdr(ttest_campaign):
    metric = ttest_campaign.metrics[(2, "ep-storey")]  # effect 2.5
    bound = 0.1 + 3.0 * metric.se_fdr
    _report(
        6,
        metric.fdr <= bound,
        f"ep-Storey FDR {metric.fdr:.4f} <= {bound:.4f} (t-test, effect 2.5, 500 reps)",
    )


def test_criterion_07_power_ordering(ttest_campaign):
    """ep-BH beats unweighted BH and normalized wBH, each by > 2 pooled SEs.

    Both asserted legs compare against ep-BH, the unnormalized e-weighting
    the paper advocates. Unweighted BH against normalized wBH is reported
    only: informative weights give normalized wBH more power than BH at
    these effects, and the ordering flips near effect 3, where a few huge
    e-values take nearly all the normalized weight. Weighted-BH theory
    promises no fixed order between the two.
    """
    legs = []
    ok = True
    for idx, xi in enumerate((1.5, 2.0, 2.5)):
        ep = ttest_campaign.metrics[(idx, "ep-bh")]
        bh = ttest_campaign.metrics[(idx, "p-bh")]
        wbh = ttest_campaign.metrics[(idx, "wbh-normalized")]
        gap1 = ep.power - bh.power
        need1 = 2.0 * _pooled_se(ep.se_power, bh.se_power)
        gap2 = ep.power - wbh.power
        need2 = 2.0 * _pooled_se(ep.se_power, wbh.se_power)
        ok = ok and gap1 > need1 and gap2 > need2
        legs.append(f"xi={xi}: ep-bh minus bh {gap1:+.4f} (need >{need1:.4f}), "
                    f"ep-bh minus wbh {gap2:+.4f} (need >{need2:.4f}), "
                    f"bh minus wbh {bh.power - wbh.power:+.4f} (reported)")
    _report(7, ok, "; ".join(legs))


def test_criterion_08_storey_adaptivity_ratio(ttest_campaign):
    wbh = ttest_campaign.metrics[(2, "wbh-normalized")]
    wst = ttest_campaign.metrics[(2, "wbh-storey-normalized")]
    ep = ttest_campaign.metrics[(2, "ep-bh")]
    est = ttest_campaign.metrics[(2, "ep-storey")]
    r_weighted = wst.power / wbh.power
    se_weighted = r_weighted * _pooled_se(wst.se_power / wst.power, wbh.se_power / wbh.power)
    r_ep = est.power / ep.power
    se_ep = r_ep * _pooled_se(est.se_power / est.power, ep.se_power / ep.power)
    gap = r_weighted - r_ep
    need = 2.0 * _pooled_se(se_weighted, se_ep)
    _report(
        8,
        gap > need,
        f"adaptivity ratio gap {gap:.4f} > {need:.4f} "
        f"(weighted {r_weighted:.4f} vs ep {r_ep:.4f}, effect 2.5)",
    )


def test_criterion_09_moderated_t_evalue_validity():
    model = ModeratedTModel(var_factor=1.0, df=38.0, df_prior=3.64, s2_prior=0.0144, gamma=1.0)
    rng = np.random.default_rng(933)
    draws = 100_000
    sigma2 = 3.64 * 0.0144 / rng.chisquare(3.64, draws)
    beta_hat = rng.standard_normal(draws) * np.sqrt(sigma2)
    s_sq = sigma2 * rng.chisquare(38.0, draws) / 38.0
    t_tilde = moderated_t(beta_hat, s_sq, model)
    e = moderated_t_evalue(t_tilde, model)
    mean = e.mean()
    se = e.std(ddof=1) / np.sqrt(draws)
    mean_ok = abs(mean - 1.0) <= 4.0 * se

    grid = np.linspace(-6.0, 6.0, 241)
    closed = moderated_t_evalue(grid, model)
    oracle = laguerre_density_ratio(grid, 3.64 + 38.0, 1.0)
    rel = float(np.max(np.abs(closed - oracle) / oracle))
    _report(
        9,
        mean_ok and rel <= 1e-6,
        f"null mean {mean:.4f} (se {se:.4f}), max rel err vs quadrature {rel:.2e}",
    )


def test_criterion_10_soft_rank_validity():
    rng = np.random.default_rng(8110)
    trials = 100_000
    details = []
    ok = True
    for r in (0.0, 0.5, 1.0):
        losses = rng.standard_normal((trials, 20))
        es = np.empty(trials)
        ps = np.empty(trials)
        for i in range(trials):
            es[i], ps[i] = soft_rank_evalue(
                PermutationStatistics(losses[i, 0], losses[i, 1:], r)
            )
        mean = es.mean()
        se = es.std(ddof=1) / np.sqrt(trials)
        holds = int((ps * es <= 1.0 + 1e-12).sum())
        ok = ok and abs(mean - 1.0) <= 4.0 * se and holds == trials
        details.append(f"r={r}: mean {mean:.4f} (se {se:.4f}), P<=1/E in {holds}/{trials}")
    _report(10, ok, "; ".join(details))


def test_criterion_11_calibrator_unit_mass():
    worst = 0.0
    for cal in SHIPPED_CALIBRATORS:
        eps = 1e-6
        body, _ = integrate.quad(cal, eps, 1.0, limit=200)
        worst = max(worst, abs(body + mass_below(cal, eps) - 1.0))
    _report(11, worst <= 1e-8, f"worst unit-mass deviation {worst:.2e} over {len(SHIPPED_CALIBRATORS)} calibrators")


def test_criterion_12_misspecification_decay():
    scenario = TTestScenario(effect=2.5, null_e_scale=1.5)
    campaign = run_campaign(
        [scenario], [ProcedureSpec("ep-bh", alpha=0.1)], replicates=500, master_seed=4012
    )
    metric = campaign.metrics[(0, "ep-bh")]
    bound = 1.5 * 0.1 * 0.95 + 3.0 * metric.se_fdr
    _report(
        12,
        metric.fdr <= bound,
        f"inflated-null ep-BH FDR {metric.fdr:.4f} <= {bound:.4f} (scale 1.5, 500 reps)",
    )


def test_criterion_13_microarray_power_contrast(microarray_campaign):
    ep0 = microarray_campaign.metrics[(0, "ep-bh")]
    wbh0 = microarray_campaign.metrics[(0, "wbh-normalized")]
    gap0 = abs(ep0.power - wbh0.power)
    need0 = 3.0 * _pooled_se(ep0.se_power, wbh0.se_power)
    ep1 = microarray_campaign.metrics[(1, "ep-bh")]
    bh1 = microarray_campaign.metrics[(1, "p-bh")]
    gap1 = ep1.power - bh1.power
    need1 = 2.0 * _pooled_se(ep1.se_power, bh1.se_power)
    ok = gap0 < need0 and gap1 > need1
    _report(
        13,
        ok,
        f"uninformative |ep-bh minus wbh| {gap0:.4f} < {need0:.4f}; "
        f"informative ep-bh minus bh {gap1:.4f} > {need1:.4f} (100 reps)",
    )


def test_criterion_14_campaign_determinism(tmp_path):
    config = {
        "alpha": 0.1,
        "scenarios": [{"kind": "ttest", "n_hypotheses": 200}],
        "procedures": ["p-bh", "ep-bh"],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for workers, name in ((1, "serial.csv"), (2, "parallel.csv")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "epmt", "simulate", "--config", str(cfg),
             "--reps", "30", "--seed", "11", "--parallelism", str(workers),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    _report(14, identical, "serial and 2-worker campaign CSVs byte-identical")
