"""Invariants of the procedures, combiners and CSV cells over generated inputs.

The inputs mix continuous values with tie-heavy grids (p in k/20, integer
e-values, e = 0 and e = inf) and e-values built to sit on e-BH's step-up
boundary, so the boundary conventions are exercised, not only generic
positions. Runs are derandomized: every run checks the
same examples.
"""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epmt import cli
from epmt.calib import combine_product, combine_quotient, p_over_e, power_calibrator, sqrt_calibrator
from epmt.procedures import (
    REGISTRY,
    ProcedureSpec,
    adaptive_e_bh,
    e_bh,
    ep_bh,
    normalized_weights,
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


@FIXED
@example((np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, np.inf, np.inf, 0.0])), sqrt_calibrator())
@given(instances(), st.sampled_from([sqrt_calibrator(), power_calibrator(0.5)]))
def test_combine_product_zero_times_inf_is_inf(pe, calibrator):
    """h(p) * e is +inf wherever p = 0 (h = inf) or e = inf, even against a 0."""
    p, e = pe
    combined = combine_product(p, e, calibrator)
    conclusive = (p == 0.0) | np.isinf(e)
    assert np.isposinf(combined[conclusive]).all()
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(combined[~conclusive], calibrator(p[~conclusive]) * e[~conclusive])


@FIXED
@example((np.array([0.0, 0.0, 0.5, 0.5]), np.array([0.0, np.inf, 0.0, np.inf])))
@given(instances())
def test_quotient_zero_over_zero_is_zero(pe):
    """p / e is 0 wherever p = 0, even over e = 0; a positive p over 0 is +inf."""
    p, e = pe
    ratio = p_over_e(p, e)
    assert (ratio[p == 0.0] == 0.0).all()
    assert np.isposinf(ratio[(p > 0.0) & (e == 0.0)]).all()
    rest = (p > 0.0) & (e > 0.0)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(ratio[rest], p[rest] / e[rest])
    np.testing.assert_array_equal(combine_quotient(p, e), np.minimum(ratio, 1.0))


# the cells a CSV must carry exactly: zero, the smallest subnormal, one, inf
P_CELL = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1.0]))
E_CELL = st.one_of(st.floats(0.0, 1e308), st.sampled_from([0.0, 5e-324, 1.0, np.inf]))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@FIXED
@given(st.lists(st.tuples(P_CELL, E_CELL), min_size=1, max_size=20), st.sampled_from(sorted(REGISTRY)))
def test_adjust_csv_round_trips_float_bits(rows, name):
    """The p, e and adjusted cells `epmt adjust` writes parse back bit for bit."""
    p = np.array([row[0] for row in rows])
    e = np.array([row[1] for row in rows])
    with tempfile.TemporaryDirectory() as work:
        inp, out = Path(work) / "in.csv", Path(work) / "out.csv"
        inp.write_text("id,p,e\n" + "".join(f"h{i},{pi!r},{ei!r}\n" for i, (pi, ei) in enumerate(rows)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # adaptive-e-bh at K = 1
            code = cli.main(["adjust", "--input", str(inp), "--procedure", name, "--out", str(out)])
            expected = ProcedureSpec(name, alpha=0.05).build()(p, e)
        assert code == 0
        with open(out, newline="") as handle:
            written = list(csv.DictReader(handle))
    for column, values in (("p", p), ("e", e), ("adjusted", expected.adjusted)):
        np.testing.assert_array_equal(_bits([float(row[column]) for row in written]), _bits(values))
    assert [row["rejected"] for row in written] == ["1" if r else "0" for r in expected.mask]


FLOAT_MAX = np.finfo(float).max


@FIXED
@given(
    st.lists(
        st.one_of(st.floats(0.0, FLOAT_MAX, allow_subnormal=False), st.floats(1e300, FLOAT_MAX)),
        min_size=1,
        max_size=30,
    ),
    st.floats(1e-6, 1.0),
)
@example([1e308, 1e308], 0.5)
def test_normalized_weights_scale_invariant(e, c):
    """Weights depend on the ratios of the e-values only, up to the float maximum.

    c <= 1 keeps c * e finite; c > 1 is the same statement read backwards.
    """
    e = np.array(e)
    scaled = c * e
    # a subnormal c * e carries fewer significant bits than e
    assume(((scaled == 0.0) | (scaled >= np.finfo(float).tiny)).all())
    np.testing.assert_allclose(normalized_weights(scaled), normalized_weights(e), rtol=1e-13, atol=1e-300)
