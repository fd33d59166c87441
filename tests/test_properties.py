"""Invariants of the step-up procedures over generated inputs.

The inputs mix continuous values with tie-heavy grids (p in k/20, integer
e-values, e = 0 and e = inf) and e-values built to sit on e-BH's step-up
boundary, so the boundary conventions are exercised, not only generic
positions. Runs are derandomized: every run checks the
same examples.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epmt.procedures import (
    REGISTRY,
    ProcedureSpec,
    adaptive_e_bh,
    e_bh,
    ep_bh,
    p_bh,
    pe_bh,
    weighted_p_bh,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

PVALUE = st.one_of(st.floats(0.0, 1.0), st.integers(0, 20).map(lambda k: k / 20.0))
EVALUE = st.one_of(
    st.floats(0.0, 1e6),
    st.integers(0, 30).map(float),
    st.just(0.0),
    st.just(np.inf),
)
ALPHA = st.one_of(st.floats(0.001, 0.5), st.sampled_from([0.01, 0.05, 0.1, 0.2]))


@st.composite
def instances(draw, min_size=1):
    """A paired (p, e) instance of 1-30 hypotheses."""
    k = draw(st.integers(min_size, 30))
    p = np.array(draw(st.lists(PVALUE, min_size=k, max_size=k)))
    e = np.array(draw(st.lists(EVALUE, min_size=k, max_size=k)))
    return p, e


@st.composite
def boundary_evalues(draw):
    """e-values K / (alpha r) that sit exactly on e-BH's step-up boundary."""
    k = draw(st.integers(2, 60))
    alpha = draw(st.sampled_from([0.01, 0.05, 0.1, 0.2]))
    ranks = np.array(draw(st.lists(st.integers(1, k), min_size=k, max_size=k)), dtype=float)
    return k / (alpha * ranks), alpha


@FIXED
@given(st.one_of(st.tuples(instances().map(lambda pe: pe[1]), ALPHA), boundary_evalues()))
def test_e_bh_matches_e_scale_definition(instance):
    """e-BH decides k* = max{k : k e_[k] / K >= 1/alpha} in the e scale.

    Stepping up on 1/e instead rounds differently on the boundary
    instances and rejects one or two more there.
    """
    e, alpha = instance
    result = e_bh(e, alpha)
    k_total = e.size
    ranked = sorted(e, reverse=True)
    k_star = max((k for k in range(1, k_total + 1) if k * ranked[k - 1] / k_total >= 1.0 / alpha), default=0)
    assert result.threshold_index == k_star == int(result.mask.sum())
    if k_star:
        np.testing.assert_array_equal(result.mask, e >= ranked[k_star - 1])


@FIXED
@given(instances(), ALPHA)
def test_unit_weights_give_p_bh(pe, alpha):
    p, _ = pe
    np.testing.assert_array_equal(weighted_p_bh(p, np.ones(p.size), alpha).mask, p_bh(p, alpha).mask)


@FIXED
@given(instances(), ALPHA)
def test_pe_bh_inside_ep_bh(pe, alpha):
    p, e = pe
    assert not (pe_bh(p, e, alpha).mask & ~ep_bh(p, e, alpha).mask).any()


@FIXED
@given(instances(min_size=2), ALPHA)
def test_e_bh_inside_adaptive_e_bh_mean(pe, alpha):
    _, e = pe
    assert not (e_bh(e, alpha).mask & ~adaptive_e_bh(e, alpha, merging="mean").mask).any()


@FIXED
@given(instances(), ALPHA, ALPHA, st.sampled_from(sorted(REGISTRY)))
def test_monotone_in_alpha(pe, a, b, name):
    p, e = pe
    lo, hi = min(a, b), max(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # adaptive-e-bh at K = 1
        small = ProcedureSpec(name, alpha=lo).build()(p, e).mask
        large = ProcedureSpec(name, alpha=hi).build()(p, e).mask
    assert not (small & ~large).any()


@FIXED
@given(instances(), ALPHA, st.sampled_from(sorted(REGISTRY)), st.data())
def test_permutation_equivariant(pe, alpha, name, data):
    p, e = pe
    perm = np.array(data.draw(st.permutations(range(p.size))))
    run = ProcedureSpec(name, alpha=alpha).build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        whole = run(p, e)
        shuffled = run(p[perm], e[perm])
    np.testing.assert_array_equal(shuffled.mask, whole.mask[perm])
    np.testing.assert_array_equal(shuffled.adjusted, np.asarray(whole.adjusted)[perm])


@FIXED
@given(instances(), ALPHA)
def test_step_up_index_counts_tied_rejections(pe, alpha):
    """k* from the step-up condition equals the count; boundary ties go together."""
    p, _ = pe
    result = p_bh(p, alpha)
    k_total = p.size
    ranked = sorted(p)
    k_star = max((k for k in range(1, k_total + 1) if k_total * ranked[k - 1] <= alpha * k), default=0)
    assert result.threshold_index == k_star == int(result.mask.sum())
    if k_star:
        np.testing.assert_array_equal(result.mask, p <= ranked[k_star - 1])
