"""Tests for scenario generators and the replication harness."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from epmt import cli, sim
from epmt.constructors import chisq_lr_evalue
from epmt.core import fdp_and_power
from epmt.procedures import REGISTRY, ProcedureSpec, e_bh, ep_bh, ep_bonferroni
from epmt.sim import (
    AdversarialScenario,
    ConfigError,
    MicroarrayScenario,
    TTestScenario,
    child_rng,
    generate_adversarial_replicate,
    generate_microarray_replicate,
    generate_replicate,
    generate_ttest_replicate,
    run_campaign,
    scenario_from_dict,
    scenario_to_dict,
)

from oracles import ep_bonferroni_ttest_power


# ---------------------------------------------------------------- scenarios


def test_ttest_scenario_refuses_other_designs():
    with pytest.raises(ValueError):
        TTestScenario(null_fraction=1.2)
    with pytest.raises(ValueError):
        TTestScenario(null_e_scale=0.0)
    for ncp in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TTestScenario(ncp=ncp)


def test_microarray_scenario_validation():
    with pytest.raises(ValueError):
        MicroarrayScenario(informative_fraction=1.5)
    with pytest.raises(ValueError):
        MicroarrayScenario(df_prior=0.0)
    with pytest.raises(ValueError):
        MicroarrayScenario(n_per_group=1)
    # one sample variance fits no prior; without refitting one gene is enough
    with pytest.raises(ValueError, match="n_hypotheses"):
        MicroarrayScenario(n_hypotheses=1)
    generate_microarray_replicate(
        MicroarrayScenario(n_hypotheses=1, refit_hyperparameters=False), child_rng(0, 0, 0))


def test_adversarial_scenario_is_all_null():
    with pytest.raises(ValueError):
        AdversarialScenario(n_hypotheses=1)
    with pytest.raises(ValueError):
        AdversarialScenario(level=1.0)


def test_scenario_dict_round_trip():
    for scn in (
        TTestScenario(effect=1.5),
        MicroarrayScenario(informative_fraction=0.25),
        AdversarialScenario(n_hypotheses=30),
    ):
        again = scenario_from_dict(scenario_to_dict(scn))
        assert again == scn


def test_scenario_from_dict_rejects_unknown():
    with pytest.raises(ConfigError) as info:
        scenario_from_dict({"kind": "ttest", "bogus": 1})
    assert "bogus" in str(info.value)
    with pytest.raises(ConfigError):
        scenario_from_dict({"kind": "nope"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"n_hypotheses": 5})


# ---------------------------------------------------------------- t-test generator


def test_ttest_replicate_shapes_and_truth():
    scn = TTestScenario(n_hypotheses=400)
    p, e, is_null = generate_ttest_replicate(scn, child_rng(0, 0, 0))
    assert p.shape == e.shape == is_null.shape == (400,)
    assert is_null.sum() == 380  # 95% nulls
    assert ((0.0 <= p) & (p <= 1.0)).all()
    assert (e >= 0.0).all()


def test_ttest_null_pvalues_uniform():
    """KS distance of pooled null p-values against the uniform is small."""
    scn = TTestScenario(n_hypotheses=2000, null_fraction=1.0)
    samples = []
    for rep in range(10):
        p, _, _ = generate_ttest_replicate(scn, child_rng(123, 0, rep))
        samples.append(p)
    pooled = np.concatenate(samples)
    d = stats.kstest(pooled, "uniform").statistic
    assert d < 0.02, f"KS distance {d}"


def test_ttest_null_evalue_mean_at_most_one():
    scn = TTestScenario(n_hypotheses=2000, null_fraction=1.0)
    vals = []
    for rep in range(25):
        _, e, _ = generate_ttest_replicate(scn, child_rng(7, 0, rep))
        vals.append(e)
    e = np.concatenate(vals)
    mean = e.mean()
    se = e.std(ddof=1) / np.sqrt(e.size)
    assert mean < 1.0 + 4.0 * se, f"null e mean {mean} (se {se})"


def test_ttest_null_p_e_independent():
    """Under the null the location and spread statistics are independent;
    rank correlation across many null draws should be near zero."""
    scn = TTestScenario(n_hypotheses=5000, null_fraction=1.0)
    p, e, _ = generate_ttest_replicate(scn, child_rng(99, 0, 0))
    rho = stats.spearmanr(p, e).statistic
    assert abs(rho) < 0.05, f"spearman {rho}"


def test_ttest_signal_shows_up():
    scn = TTestScenario(n_hypotheses=2000, effect=2.5)
    p, e, is_null = generate_ttest_replicate(scn, child_rng(1, 0, 0))
    assert p[~is_null].mean() < p[is_null].mean()
    assert e[~is_null].mean() > e[is_null].mean()


def test_ttest_null_e_scale_inflates_only_nulls():
    base = TTestScenario(n_hypotheses=1000)
    scaled = TTestScenario(n_hypotheses=1000, null_e_scale=1.5)
    _, e0, is_null = generate_ttest_replicate(base, child_rng(5, 0, 0))
    _, e1, _ = generate_ttest_replicate(scaled, child_rng(5, 0, 0))
    np.testing.assert_allclose(e1[is_null], 1.5 * e0[is_null])
    np.testing.assert_allclose(e1[~is_null], e0[~is_null])


@pytest.mark.parametrize("field", [{"effect": 1e200}, {"null_e_scale": 1e308}], ids=["effect", "null_e_scale"])
def test_ttest_values_past_the_float_range_are_inf_without_a_warning(field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, e, is_null = generate_ttest_replicate(TTestScenario(n_hypotheses=200, **field), child_rng(5, 0, 0))
    inflated = ~is_null if "effect" in field else is_null
    assert np.isposinf(e[inflated]).any()
    assert not np.isnan(p).any() and not np.isnan(e).any()


def ttest_by_row_reductions(scenario, rng):
    """The t-test replicate computed with numpy's reductions along each
    hypothesis' row of 5 draws."""
    k_total = scenario.n_hypotheses
    is_null = np.arange(k_total) < round(k_total * scenario.null_fraction)
    x = rng.standard_normal((k_total, 5)) + np.where(is_null, 0.0, scenario.effect)[:, None]
    y = rng.standard_normal((k_total, 5))
    x_mean, y_mean = x.mean(axis=1), y.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sqrt(5.0) * (y_mean - x_mean) / np.sqrt(x.var(axis=1, ddof=1) + y.var(axis=1, ddof=1))
    p = 2.0 * special.stdtr(8, -np.abs(t))
    grand = 0.5 * (x_mean + y_mean)
    ssq = ((x - grand[:, None]) ** 2).sum(axis=1) + ((y - grand[:, None]) ** 2).sum(axis=1)
    e = chisq_lr_evalue(ssq, 9, scenario.ncp)
    if scenario.null_e_scale != 1.0:
        e = np.where(is_null, scenario.null_e_scale * e, e)
    return p, e, is_null


@pytest.mark.parametrize("k", [1, 2, 37, 2000])
@pytest.mark.parametrize(
    "design",
    [{}, {"null_fraction": 0.0}, {"null_fraction": 1.0}, {"effect": 0.0}, {"null_e_scale": 2.0}],
    ids=["default", "all-alternative", "all-null", "no-effect", "null-e-scale"],
)
def test_ttest_replicate_has_the_bits_of_row_reductions(k, design):
    """The generator sums each sample's draws in draw order; p, e and
    is_null keep every bit of numpy's row reductions, on 200 seeds."""
    scenario = TTestScenario(n_hypotheses=k, **design)
    for seed in range(200):
        got = generate_ttest_replicate(scenario, child_rng(seed, 0, 0))
        want = ttest_by_row_reductions(scenario, child_rng(seed, 0, 0))
        for name, a, b in zip(("p", "e", "is_null"), got, want):
            assert a.tobytes() == b.tobytes(), (seed, name)


# ---------------------------------------------------------------- microarray generator


def test_microarray_replicate_shapes():
    scn = MicroarrayScenario(n_hypotheses=500)
    p, e, is_null = generate_microarray_replicate(scn, child_rng(0, 1, 0))
    assert p.shape == e.shape == is_null.shape == (500,)
    assert is_null.sum() == 400  # 80% nulls
    assert (e > 0.0).all()


def test_microarray_null_pvalues_uniform():
    scn = MicroarrayScenario(n_hypotheses=2000, null_fraction=1.0)
    samples = []
    for rep in range(10):
        p, _, _ = generate_microarray_replicate(scn, child_rng(17, 0, rep))
        samples.append(p)
    d = stats.kstest(np.concatenate(samples), "uniform").statistic
    assert d < 0.02, f"KS distance {d}"


def test_microarray_null_evalue_mean_at_most_one():
    # fixed (true) hyperparameters so e-values are exactly valid
    scn = MicroarrayScenario(n_hypotheses=2000, null_fraction=1.0, refit_hyperparameters=False)
    vals = []
    for rep in range(25):
        _, e, _ = generate_microarray_replicate(scn, child_rng(23, 0, rep))
        vals.append(e)
    e = np.concatenate(vals)
    mean = e.mean()
    se = e.std(ddof=1) / np.sqrt(e.size)
    assert mean < 1.0 + 4.0 * se, f"null e mean {mean} (se {se})"


def test_microarray_uninformative_fraction_kills_evalues():
    informative = MicroarrayScenario(n_hypotheses=2000, informative_fraction=1.0)
    blank = MicroarrayScenario(n_hypotheses=2000, informative_fraction=0.0)
    _, e1, n1 = generate_microarray_replicate(informative, child_rng(2, 0, 0))
    _, e0, n0 = generate_microarray_replicate(blank, child_rng(2, 0, 0))
    # with signal in the e-arm, non-null e-values separate; without, they don't
    assert e1[~n1].mean() > 2.0 * e0[~n0].mean()


def test_microarray_p_arm_tracks_effect():
    strong = MicroarrayScenario(n_hypotheses=2000, effect=0.9)
    weak = MicroarrayScenario(n_hypotheses=2000, effect=0.3)
    p_s, _, null_s = generate_microarray_replicate(strong, child_rng(3, 0, 0))
    p_w, _, null_w = generate_microarray_replicate(weak, child_rng(3, 0, 0))
    assert p_s[~null_s].mean() < p_w[~null_w].mean()


# ---------------------------------------------------------------- adversarial generator


def test_adversarial_evalues_two_point():
    rng = child_rng(0, 2, 0)
    _, e, _ = generate_adversarial_replicate(AdversarialScenario(50, level=0.1), rng)
    # every coordinate is 0 or the reciprocal of its threshold
    assert set(np.round(e[e > 0.0], 10)) <= set(
        np.round(1.0 / np.unique(_thresholds(50, 0.1)), 10)
    )


def _thresholds(k_total, alpha):
    thresholds = np.full(k_total, 0.9 * alpha)
    n_ladder = max(1, k_total // 5)
    thresholds[:n_ladder] = 0.9 * alpha * np.arange(1, n_ladder + 1) / n_ladder
    return thresholds


def test_adversarial_evalues_mean_one():
    """Each coordinate has mean exactly 1 over the shared uniform draw.

    The coordinates are comonotone, so the per-replicate grand mean has
    high variance; the test uses its empirical SE over replicates.
    """
    reps = 20_000
    grand = np.empty(reps)
    coord_sum = np.zeros(50)
    for rep in range(reps):
        _, e, _ = generate_adversarial_replicate(AdversarialScenario(50, level=0.1), child_rng(4, 0, rep))
        grand[rep] = e.mean()
        coord_sum += e
    mean = grand.mean()
    se = grand.std(ddof=1) / np.sqrt(reps)
    assert abs(mean - 1.0) < 4.0 * se, f"grand mean {mean} (se {se})"
    # the shared-threshold block (last 40 coordinates) is tight on its own
    block = coord_sum[10:] / reps
    assert abs(block.mean() - 1.0) < 0.1


def test_adversarial_ebh_fdr_matches_exact_oracle():
    """e-BH's FDR in the adversarial scenario, exactly and by Monte Carlo.

    The one shared uniform U is the only randomness, and the e-values only
    change where U crosses a firing threshold. So the FDR (every rejection
    is false) is a finite sum: the total length of the U-intervals on which
    e-BH rejects. The generator itself gives the breakpoints, since at U = 0
    every coordinate fires with e = 1/threshold.

    The value sits on a float boundary. For U in (0.045, 0.054], 45
    coordinates fire with e = 1/0.09 at the 45th; k * e_(k) / K is then
    exactly 1/alpha in real arithmetic but reads 9.999999999999998. So e-BH
    rejects only when U <= 0.045, when 46 or more fire: FDR 0.045, not 0.054.
    """
    scenario = AdversarialScenario(50, level=0.1)

    def fdp(rng):
        _, e, _ = generate_adversarial_replicate(scenario, rng)
        return 1.0 if e_bh(e, 0.1).rejected else 0.0

    def fixed(u):
        return SimpleNamespace(random=lambda: u)

    _, e_all, _ = generate_adversarial_replicate(scenario, fixed(0.0))
    edges = np.unique(np.concatenate([[0.0, 1.0], 1.0 / e_all]))
    exact = sum((b - a) * fdp(fixed((a + b) / 2)) for a, b in zip(edges[:-1], edges[1:]))
    assert abs(exact - 0.045) <= 1e-12

    # criterion 01's Monte Carlo, held to the exact value from both sides
    rng = np.random.default_rng(8101)
    draws = np.array([fdp(rng) for _ in range(10_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) <= 3.0 * se, f"MC {draws.mean()} (se {se}) vs exact {exact}"


def test_ep_bh_fdr_matches_exact_oracle():
    """ep-BH's FDR with null e-values bounded by 1/alpha, held from both sides.

    Given e, ep-BH is weighted BH with fixed weights e, and no null
    threshold alpha * k * e_i / K reaches 1. With independent uniform null
    p-values its FDR is then exactly (alpha / K) * sum of the null weights
    (Genovese, Roeder and Wasserman 2006), so over e it is
    (alpha / K) * sum_null E[e_i]. Nulls draw e from {0, 2} with equal
    odds (mean 1) and non-nulls take e = 3 with Beta(0.1, 1) p-values:
    FDR = 0.1 / 100 * 80 = 0.08.
    """
    k, k_null, alpha, replicates = 100, 80, 0.1, 100_000
    exact = alpha / k * k_null * 1.0
    is_null = np.arange(k) < k_null
    e_alt = np.full(k - k_null, 3.0)
    rng = np.random.default_rng(20261018)
    fdp = np.empty(replicates)
    for i in range(replicates):
        p = np.concatenate([rng.random(k_null), rng.beta(0.1, 1.0, k - k_null)])
        e = np.concatenate([2.0 * (rng.random(k_null) < 0.5), e_alt])
        fdp[i] = fdp_and_power(ep_bh(p, e, alpha).mask, is_null)[0]
    se = fdp.std(ddof=1) / np.sqrt(replicates)
    assert abs(fdp.mean() - exact) <= 3.0 * se, f"MC {fdp.mean()} (se {se}) vs exact {exact}"


def test_ep_bonferroni_pfer_matches_exact_oracle():
    """ep-Bonferroni's PFER in the full-null t-test scenario, held from both sides.

    ep-Bonferroni rejects a null when p <= alpha * e / K. The t-test's null
    p is uniform and, by Basu's theorem, independent of the total sum of
    squares S ~ chisq(9) behind e = chisq_lr_evalue(S, 9, 10), so
    PFER = K * E[min(alpha * e / K, 1)] = alpha * E[min(e, K / alpha)].
    e is the ncx2(9, 10) over chisq(9) density ratio and increases in S;
    with e(s*) = K / alpha, E[min(e, K / alpha)] = ncx2.cdf(s*) +
    (K / alpha) * chi2.sf(s*), which quadrature confirms.
    """
    k, alpha, replicates = 500, 0.1, 10_000
    cap = k / alpha
    s_cap = optimize.brentq(lambda s: chisq_lr_evalue(s, 9.0, 10.0) - cap, 1.0, 1000.0, xtol=1e-13)
    exact = alpha * (stats.ncx2.cdf(s_cap, 9.0, 10.0) + cap * stats.chi2.sf(s_cap, 9.0))
    below, _ = integrate.quad(lambda s: chisq_lr_evalue(s, 9.0, 10.0) * stats.chi2.pdf(s, 9.0), 0.0, s_cap, epsabs=1e-13)
    assert alpha * (below + cap * stats.chi2.sf(s_cap, 9.0)) == pytest.approx(exact, abs=1e-10)
    assert exact == pytest.approx(0.0999514, abs=1e-7)
    scenario = TTestScenario(n_hypotheses=k, null_fraction=1.0)
    rng = np.random.default_rng(20261019)
    n_false = np.empty(replicates)
    for i in range(replicates):
        p, e, _ = generate_replicate(scenario, rng)
        n_false[i] = np.count_nonzero(ep_bonferroni(p, e, alpha).mask)
    se = n_false.std(ddof=1) / np.sqrt(replicates)
    assert abs(n_false.mean() - exact) <= 3.0 * se, f"MC {n_false.mean()} (se {se}) vs exact {exact}"


def simulate_row(tmp_path, scenario, procedure, reps, seed):
    """The one CSV row of `epmt simulate` at parallelism 2 on one scenario
    and one procedure at alpha 0.1."""
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"alpha": 0.1, "scenarios": [scenario], "procedures": [procedure]}))
    out = tmp_path / "campaign.csv"
    argv = ["simulate", "--config", str(config), "--reps", str(reps), "--seed", str(seed), "--parallelism", "2"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert (row["procedure"], row["replicates"]) == (procedure, str(reps))
    return row


def test_simulate_csv_pfer_and_fwer_match_their_exact_values(tmp_path):
    """The same exact PFER, and the FWER it implies, read from `epmt
    simulate`'s CSV at parallelism 2: through run_campaign's batches, its
    aggregation and the writer. Each null is rejected independently with
    probability PFER / K, so FWER = 1 - (1 - PFER / K)^K. Both are held
    from both sides within 3 of the CSV's own standard errors."""
    pfer, k = 0.0999514, 500
    fwer = 1.0 - (1.0 - pfer / k) ** k
    assert fwer == pytest.approx(0.0951276, abs=1e-7)
    scenario = {"kind": "ttest", "n_hypotheses": k, "null_fraction": 1.0}
    row = simulate_row(tmp_path, scenario, "ep-bonferroni", reps=10_000, seed=1016)
    for rate, exact in (("pfer", pfer), ("fwer", fwer)):
        got, se = float(row[rate]), float(row["se_" + rate])
        assert abs(got - exact) <= 3.0 * se, f"{rate} {got} (se {se}) vs exact {exact}"


def test_simulate_csv_adversarial_ebh_fdr_matches_its_exact_value(tmp_path):
    """e-BH's exact adversarial FDR, 0.045 (see the oracle test above), read
    from `epmt simulate`'s CSV at parallelism 2 and held from both sides
    within 3 of the CSV's own standard error."""
    scenario = {"kind": "adversarial", "n_hypotheses": 50, "level": 0.1}
    row = simulate_row(tmp_path, scenario, "e-bh", reps=20_000, seed=1017)
    assert row["scenario"] == "adversarial-0"
    got, se = float(row["fdr"]), float(row["se_fdr"])
    assert abs(got - 0.045) <= 3.0 * se, f"fdr {got} (se {se}) vs exact 0.045"


def test_simulate_csv_p_bh_fdr_matches_its_exact_value(tmp_path):
    """p-BH on independent p-values with uniform nulls has FDR exactly
    alpha * K0 / K (Benjamini and Hochberg 1995): 0.1 * 475 / 500 = 0.095 in
    the t-test scenario at K = 500 and null fraction 0.95. Read from `epmt
    simulate`'s CSV and held from both sides within 3 of its own SE."""
    scenario = {"kind": "ttest", "n_hypotheses": 500, "null_fraction": 0.95}
    row = simulate_row(tmp_path, scenario, "p-bh", reps=10_000, seed=1018)
    got, se = float(row["fdr"]), float(row["se_fdr"])
    assert abs(got - 0.095) <= 3.0 * se, f"fdr {got} (se {se}) vs exact 0.095"


def test_simulate_csv_ep_bonferroni_power_matches_its_exact_value(tmp_path):
    """The power column against an exact value: ep-Bonferroni in the default
    t-test scenario (K = 2000, effect 2.5, null fraction 0.95, alpha 0.1).
    The quadrature's boundary roots agree with an earlier grid estimate,
    0.38202, which resolved the boundary to about 1e-4. Every non-null has
    the same rejection probability, so the mean per-replicate power has
    that expectation; it is held from both sides within 3 of the CSV's SE."""
    exact = ep_bonferroni_ttest_power()
    assert exact == pytest.approx(0.38202, abs=1e-4)
    scenario = {"kind": "ttest", "n_hypotheses": 2000, "null_fraction": 0.95, "effect": 2.5}
    row = simulate_row(tmp_path, scenario, "ep-bonferroni", reps=600, seed=1019)
    got, se = float(row["power"]), float(row["se_power"])
    assert abs(got - exact) <= 3.0 * se, f"power {got} (se {se}) vs exact {exact}"


def test_adversarial_replicate_all_null():
    scn = AdversarialScenario(n_hypotheses=50)
    p, e, is_null = generate_adversarial_replicate(scn, child_rng(0, 0, 0))
    assert is_null.all()
    assert np.isnan(p).all()
    assert e.shape == (50,)


# ---------------------------------------------------------------- harness


def test_child_rng_deterministic_and_distinct():
    a = child_rng(1, 2, 3).random(4)
    b = child_rng(1, 2, 3).random(4)
    c = child_rng(1, 2, 4).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_replicate_dispatch():
    for scn in (TTestScenario(n_hypotheses=50), MicroarrayScenario(n_hypotheses=50),
                AdversarialScenario(n_hypotheses=50)):
        p, e, is_null = generate_replicate(scn, child_rng(0, 0, 0))
        assert len(p) == len(e) == len(is_null) == 50
    with pytest.raises(TypeError):
        generate_replicate(object(), child_rng(0, 0, 0))


def test_run_campaign_basic_metrics():
    scn = TTestScenario(n_hypotheses=300)
    specs = [ProcedureSpec("p-bh"), ProcedureSpec("ep-bh")]
    res = run_campaign([scn], specs, replicates=40, master_seed=6)
    assert set(res.metrics) == {(0, "p-bh"), (0, "ep-bh")}
    for (_, name), m in res.metrics.items():
        assert 0.0 <= m.fdr <= 1.0
        assert 0.0 <= m.power <= 1.0
        assert m.fwer <= 1.0 and m.pfer >= m.fwer
        assert m.replicates == 40


def test_run_campaign_parallelism_invariant():
    scn = TTestScenario(n_hypotheses=200)
    specs = [ProcedureSpec("ep-bh"), ProcedureSpec("e-bh")]
    serial = run_campaign([scn], specs, replicates=21, master_seed=9, parallelism=1)
    parallel = run_campaign([scn], specs, replicates=21, master_seed=9, parallelism=3)
    for key, m in serial.metrics.items():
        n = parallel.metrics[key]
        assert m == n, f"metrics diverged for {key}"


def test_run_campaign_replicate_stats_all_null():
    scn = AdversarialScenario(n_hypotheses=20)
    res = run_campaign([scn], [ProcedureSpec("e-bh")], replicates=15, master_seed=1)
    per_rep = res.replicate_stats[(0, "e-bh")]
    assert per_rep.shape == (15, 4)
    # all-null scenario: power column is identically zero
    assert (per_rep[:, 1] == 0.0).all()


def test_run_campaign_replicate_stats_are_the_metrics_columns():
    """Every campaign keeps its per-replicate stats, whose column means are the metrics."""
    scenarios = [TTestScenario(n_hypotheses=200), MicroarrayScenario(n_hypotheses=200)]
    specs = [ProcedureSpec("p-bh"), ProcedureSpec("ep-bh"), ProcedureSpec("ep-bonferroni")]
    serial = run_campaign(scenarios, specs, replicates=12, master_seed=3)
    parallel = run_campaign(scenarios, specs, replicates=12, master_seed=3, parallelism=2)
    assert list(serial.replicate_stats) == list(serial.metrics)
    for key, per_rep in serial.replicate_stats.items():
        assert per_rep.shape == (12, 4)
        m = serial.metrics[key]
        means = [float(per_rep[:, col].mean()) for col in range(4)]
        assert means == [m.fdr, m.power, m.fwer, m.pfer], key
        # the fwer column flags a replicate with any false rejection
        np.testing.assert_array_equal(per_rep[:, 2], (per_rep[:, 3] > 0).astype(float))
        np.testing.assert_array_equal(per_rep, parallel.replicate_stats[key])


@pytest.mark.parametrize(
    "replicates,parallelism,forks",
    [(3, 8, 3), (1, 4, 0), (8, 2, 2)],
    ids=["8-over-3-tasks", "4-over-1-task", "2-over-2-tasks"],
)
def test_run_campaign_starts_no_worker_beyond_the_tasks(monkeypatch, replicates, parallelism, forks):
    started = []
    fork = os.fork

    def counting_fork():
        started.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    scn = AdversarialScenario(n_hypotheses=20)
    specs = [ProcedureSpec("e-bh")]
    pooled = run_campaign([scn], specs, replicates=replicates, master_seed=4, parallelism=parallelism)
    # every fork is this process's, one per worker
    assert started == [os.getpid()] * forks
    serial = run_campaign([scn], specs, replicates=replicates, master_seed=4)
    np.testing.assert_array_equal(pooled.replicate_stats[(0, "e-bh")], serial.replicate_stats[(0, "e-bh")])


def test_pool_map_runs_a_closure_over_a_large_list_in_item_order():
    """Two forked workers run a lambda, which cannot be pickled, over 10^6
    items it closes over: only the item indices and results cross."""
    data = list(range(1_000_000))
    fn = lambda lo: (os.getpid(), sum(data[lo : lo + 100_000]))  # noqa: E731
    pooled = sim._pool_map(fn, range(0, len(data), 100_000), 2)
    assert [total for _, total in pooled] == [total for _, total in map(fn, range(0, len(data), 100_000))]
    if hasattr(os, "fork"):
        assert os.getpid() not in {pid for pid, _ in pooled}


# the most a failed _pool_map may take: far below the sleeping worker's 20 s,
# so a call that waits that worker out instead of killing it fails
KILLED_WORKER_BOUND_S = 10.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks only where the platform can")
def test_pool_map_raises_on_a_killed_worker_and_leaves_no_child(tmp_path):
    """A worker killed by a signal raises RuntimeError naming it, at once:
    the other worker, still asleep, is killed and reaped, not waited for."""

    def task(item):
        (tmp_path / str(item)).write_text(str(os.getpid()))
        if item == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(20)

    started = time.perf_counter()
    with pytest.raises(RuntimeError) as raised:
        sim._pool_map(task, [0, 1], 2)
    assert time.perf_counter() - started < KILLED_WORKER_BOUND_S
    killed = (tmp_path / "0").read_text()
    assert str(raised.value) == f"worker process {killed} ended with wait status {signal.SIGKILL} before sending its results"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks only where the platform can")
def test_pool_map_raises_a_task_exception_and_leaves_no_child():
    def task(item):
        if item == 2:
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match="^item 2$"):
        sim._pool_map(task, list(range(6)), 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# replicate counts whose (scenarios, replicates, procedures, 4) block of
# float64 exceeds numpy's index range, so no test depends on the operating
# system refusing an allocation: past the largest dimension, and 2**60 rows
# of 32 bytes and more
OVERSIZED_REPS = [99999999999999999999, 2**60]
# n_hypotheses past the index range: past the largest dimension, and 2**61
# float64, which no scenario's array holds
OVERSIZED_HYPOTHESES = [
    {"kind": "adversarial", "n_hypotheses": 10**23},
    {"kind": "ttest", "n_hypotheses": 2**61},
    {"kind": "microarray", "n_hypotheses": 2**61},
]


@pytest.mark.parametrize("replicates", OVERSIZED_REPS)
def test_run_campaign_refuses_replicates_it_cannot_hold_before_any_task(monkeypatch, replicates):
    monkeypatch.setattr(sim, "_pool_map", None, raising=False)  # a task would call it
    with pytest.raises(sim.TooManyReplicates):
        run_campaign([AdversarialScenario()], [ProcedureSpec("e-bh")], replicates=replicates, parallelism=2)


@pytest.mark.parametrize("scenario", OVERSIZED_HYPOTHESES, ids=lambda s: s["kind"])
def test_run_campaign_refuses_n_hypotheses_past_the_index_range_before_any_task(monkeypatch, scenario):
    monkeypatch.setattr(sim, "_pool_map", None, raising=False)
    with pytest.raises(ConfigError, match=f"^scenario {scenario['kind']}-1: n_hypotheses {scenario['n_hypotheses']} "):
        run_campaign([AdversarialScenario(), scenario_from_dict(scenario)], [ProcedureSpec("e-bh")], replicates=2)


def test_run_campaign_names_the_scenario_whose_draws_memory_cannot_hold(monkeypatch):
    """numpy's MemoryError in a replicate is a refused draw, as a kernel's
    refusal is: it names the scenario and replicate."""

    def refuse(scenario, rng):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(sim, "generate_adversarial_replicate", refuse)
    with pytest.raises(ConfigError, match="^scenario adversarial-0 replicate 0: Unable to allocate 7.28 TiB$"):
        run_campaign([AdversarialScenario()], [ProcedureSpec("e-bh")], replicates=2)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize(
    "reps,scenario,code,start",
    [
        *((str(n), {"kind": "ttest", "n_hypotheses": 50}, 3, f"error: --reps {n} is too large: ") for n in OVERSIZED_REPS),
        *(("2", s, 2, f"error: scenario {s['kind']}-0: n_hypotheses {s['n_hypotheses']} ") for s in OVERSIZED_HYPOTHESES),
    ],
    ids=["reps-dimension", "reps-bytes", "adversarial-n", "ttest-n", "microarray-n"],
)
def test_simulate_refuses_oversized_sizes_in_one_line(tmp_path, reps, scenario, code, start, parallelism):
    """An oversized --reps exits 3 naming the flag, an oversized
    n_hypotheses exits 2 naming the scenario: one error line, no traceback
    and no output."""
    config = tmp_path / "big.json"
    procedures = ["e-bh"] if scenario["kind"] == "adversarial" else ["p-bh", "ep-bh"]
    config.write_text(json.dumps({"scenarios": [scenario], "procedures": procedures}))
    argv = ["simulate", "--config", str(config), "--reps", reps, "--parallelism", str(parallelism)]
    got, stderr = run_python("-m", "epmt", *argv, "--out", str(tmp_path / "big.csv"))
    assert (got, len(stderr.splitlines())) == (code, 1), stderr
    assert stderr.startswith(start), stderr
    assert list(tmp_path.iterdir()) == [config]


def test_run_campaign_validation():
    scn = AdversarialScenario(n_hypotheses=20)
    with pytest.raises(ValueError):
        run_campaign([scn], [ProcedureSpec("e-bh")], replicates=0)
    with pytest.raises(ValueError):
        run_campaign([], [ProcedureSpec("e-bh")], replicates=5)
    with pytest.raises(ValueError):
        run_campaign([scn], [], replicates=5)
    with pytest.raises(ValueError):
        run_campaign([scn], [ProcedureSpec("e-bh"), ProcedureSpec("e-bh")], replicates=5)
    with pytest.raises(ValueError):
        run_campaign([scn], [ProcedureSpec("e-bh")], replicates=5, parallelism=0)


def test_run_campaign_seed_changes_results():
    scn = TTestScenario(n_hypotheses=200)
    a = run_campaign([scn], [ProcedureSpec("ep-bh")], replicates=10, master_seed=1)
    b = run_campaign([scn], [ProcedureSpec("ep-bh")], replicates=10, master_seed=2)
    assert a.metrics[(0, "ep-bh")] != b.metrics[(0, "ep-bh")]


def run_python(*args):
    """`python <args>` in a fresh interpreter, as (exit code, stderr)."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    return proc.returncode, proc.stderr


def test_simulate_warns_once_at_every_parallelism(tmp_path):
    """A warning raised in pool workers is issued once by the command, as
    in a serial campaign, not once per worker: stderr and the CSV are the
    same at parallelism 1 and 2. A filter that names the module still
    matches, and an error filter still raises, with no output written."""
    config = tmp_path / "one.json"
    one = {"scenarios": [{"kind": "ttest", "n_hypotheses": 1}], "procedures": ["adaptive-e-bh"]}
    config.write_text(json.dumps(one))
    message = "adaptive e-BH needs at least two hypotheses; falling back to plain e-BH"
    seen = {}
    for parallelism in (1, 2):
        argv = ["-m", "epmt", "simulate", "--config", str(config), "--reps", "20", "--parallelism", str(parallelism)]
        for name, filters in (("default", []), ("always", ["-W", "always::UserWarning:epmt.procedures"])):
            out = tmp_path / f"{name}{parallelism}.csv"
            seen[name, parallelism] = (run_python(*filters, *argv, "--out", str(out)), out.read_bytes())
        code, stderr = run_python("-W", "error", *argv, "--out", str(tmp_path / "raised.csv"))
        assert (code, stderr.splitlines()[-1]) == (1, f"epmt.procedures.SingleHypothesis: {message}")
        assert not (tmp_path / "raised.csv").exists()
    assert seen["default", 1][0] == (0, f"warning: {message}\n")
    assert seen["always", 1][0] == (0, f"warning: {message}\n" * 20)
    for name in ("default", "always"):
        assert seen[name, 2] == seen[name, 1]


def test_serial_campaign_loads_no_process_pool_module():
    """Neither a serial nor a pooled campaign imports multiprocessing or the
    process pool: the pool forks its workers itself."""
    code = (
        "import sys\n"
        "from epmt.procedures import ProcedureSpec\n"
        "from epmt.sim import TTestScenario, run_campaign\n"
        "for parallelism in (1, 2):\n"
        "    run_campaign([TTestScenario(n_hypotheses=50)], [ProcedureSpec('ep-bh')], replicates=3, parallelism=parallelism)\n"
        "    print(sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'"
        " or m == 'concurrent.futures.process'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n", "")


def test_pooled_simulate_in_dev_mode_writes_the_serial_bytes(tmp_path):
    """`python -X dev -W error -m epmt simulate` at parallelism 2, on the
    t-test and microarray scenarios and the six procedures of the mixed
    benchmark, warns nothing and writes the bytes of the in-process serial
    run: forked workers, in-place kernels and all."""
    procedures = ["p-bh", "e-bh", "ep-bh", "pe-bh", {"name": "ep-storey", "tau": 0.5}, "wbh-storey-normalized"]
    scenarios = [{"kind": "ttest", "n_hypotheses": 500, "effect": 2.5}, {"kind": "microarray", "n_hypotheses": 500}]
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps({"alpha": 0.1, "scenarios": scenarios, "procedures": procedures}))
    argv = ["simulate", "--config", str(config), "--reps", "20", "--seed", "11"]
    assert cli.main([*argv, "--out", str(tmp_path / "serial.csv")]) == 0
    pooled = [*argv, "--parallelism", "2", "--out", str(tmp_path / "pooled.csv")]
    assert run_python("-X", "dev", "-W", "error", "-m", "epmt", *pooled) == (0, "")
    for suffix in (".csv", ".manifest.json"):
        assert (tmp_path / f"pooled{suffix}").read_bytes() == (tmp_path / f"serial{suffix}").read_bytes()


@pytest.mark.parametrize("field", [{"effect": 1e200}, {"null_e_scale": 1e308}], ids=["effect", "null_e_scale"])
def test_simulate_on_values_past_the_float_range_warns_nothing(tmp_path, field):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"scenarios": [{"kind": "ttest", **field}], "procedures": ["p-bh", "ep-bh"]}))
    argv = ["simulate", "--config", str(config), "--reps", "3", "--out", str(tmp_path / "huge.csv")]
    assert run_python("-W", "error", "-m", "epmt", *argv) == (0, "")


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize(
    "scenario,cause",
    [
        # chisquare(0.01) draws zeros, so some sigma2 is inf
        ({"kind": "microarray", "df_prior": 0.01}, "sample variances must be positive and finite"),
        # the sums of five draws overflow, so every non-null p is NaN
        ({"kind": "ttest", "effect": 1e308}, "p-value out of [0, 1] at position 1900: "),
    ],
    ids=["df_prior", "effect"],
)
def test_simulate_refuses_a_scenario_whose_draws_a_kernel_refuses(tmp_path, scenario, cause, parallelism):
    """A scenario the config checks accept, but whose draws a kernel
    refuses, exits 2 naming the scenario and replicate, as a bad config
    does: no traceback and no output. At parallelism 2 the error comes
    from a pool worker."""
    config = tmp_path / "drawn.json"
    scenarios = [{"kind": "ttest", "n_hypotheses": 100}, scenario]
    config.write_text(json.dumps({"scenarios": scenarios, "procedures": ["ep-bh"]}))
    argv = ["simulate", "--config", str(config), "--reps", "2", "--parallelism", str(parallelism)]
    code, stderr = run_python("-m", "epmt", *argv, "--out", str(tmp_path / "drawn.csv"))
    assert code == 2
    assert stderr.splitlines()[-1].startswith(f"error: scenario {scenario['kind']}-1 replicate 0: {cause}")
    assert "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == [config]


def test_simulate_on_evalues_near_the_float_maximum_warns_nothing_for_any_procedure(tmp_path):
    """Null e-values scaled to about 1e308 overflow to inf inside the
    procedures, the intended value: every procedure runs under `-W error`
    without a warning and writes the rates of a run that ignores them."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"scenarios": [{"kind": "ttest", "null_e_scale": 1e308}], "procedures": sorted(REGISTRY)}))
    argv = ["simulate", "--config", str(config), "--reps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([*argv, "--out", str(tmp_path / "ignored.csv")]) == 0
    assert run_python("-W", "error", "-m", "epmt", *argv, "--out", str(tmp_path / "raised.csv")) == (0, "")
    assert (tmp_path / "raised.csv").read_bytes() == (tmp_path / "ignored.csv").read_bytes()


def test_pooled_campaign_issues_the_warnings_of_a_task_that_raises(tmp_path):
    """A replicate that warns and then raises prints its warnings before
    its error at every parallelism, as a serial run does."""
    config = tmp_path / "drawn.json"
    scenarios = [{"kind": "ttest", "n_hypotheses": 100}, {"kind": "microarray", "df_prior": 0.01}]
    config.write_text(json.dumps({"scenarios": scenarios, "procedures": ["ep-bh"]}))
    seen = []
    for parallelism in (1, 2):
        argv = ["simulate", "--config", str(config), "--reps", "2", "--parallelism", str(parallelism)]
        seen.append(run_python("-m", "epmt", *argv, "--out", str(tmp_path / "drawn.csv")))
    assert seen[1] == seen[0]
    code, stderr = seen[0]
    lines = stderr.splitlines()
    assert code == 2 and len(lines) > 1
    assert all(line.startswith("warning: ") for line in lines[:-1])
    assert lines[-1].startswith("error: scenario microarray-1 replicate 0: ")
