"""Tests for scenario generators and the replication harness."""

import numpy as np
import pytest
from scipy import stats

from epmt.procedures import ProcedureSpec
from epmt.sim import (
    AdversarialScenario,
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


# ---------------------------------------------------------------- scenarios


def test_ttest_scenario_refuses_other_designs():
    with pytest.raises(ValueError):
        TTestScenario(n_per_group=10)
    with pytest.raises(ValueError):
        TTestScenario(ssq_df=8)
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
    with pytest.raises(KeyError) as info:
        scenario_from_dict({"kind": "ttest", "bogus": 1})
    assert "bogus" in str(info.value)
    with pytest.raises(KeyError):
        scenario_from_dict({"kind": "nope"})
    with pytest.raises(KeyError):
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
