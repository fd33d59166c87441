"""Invariants of the procedures, combiners and CSV cells over generated inputs.

The inputs mix continuous values with tie-heavy grids (p in k/20, integer
e-values, e = 0 and e = inf) and e-values built to sit on e-BH's step-up
boundary, so the boundary conventions are exercised, not only generic
positions. Runs are derandomized: every run checks the
same examples.
"""

import contextlib
import csv
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epmt import cli, table
from epmt.calib import (
    calibrate_e_to_p,
    combine_bonferroni,
    combine_mean,
    combine_product,
    combine_quotient,
    p_over_e,
    power_calibrator,
    shift_evalue,
    sqrt_calibrator,
)
from epmt.procedures import (
    REGISTRY,
    ProcedureSpec,
    adaptive_e_bh,
    e_bh,
    ep_bh,
    ep_storey,
    harmonic_number,
    normalized_weights,
    p_bh,
    pe_bh,
    wbh_storey_normalized,
    weighted_p_bh,
    weighted_p_bh_normalized,
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


# Leave-one-out self-consistency, the deterministic step of the FDR proofs
# for step-up procedures whose weights do not depend on p_i (Blanchard and
# Roquain 2008; for e-BH, Wang and Ramdas 2022). With R0_i the rejection
# count when p_i is set to 0 (e_i to +inf for e-BH), i is rejected iff its
# statistic passes at level alpha * R0_i / K, and then R = R0_i. Per family
# in the p scale: run(p, e, alpha, tau), and whether only p_i <= tau can be
# rejected (the Storey weights move with p_i only across tau).
LEAVE_ONE_OUT = {
    "p-bh": (lambda p, e, alpha, tau: p_bh(p, alpha), False),
    "p-bh-by": (lambda p, e, alpha, tau: p_bh(p, alpha, by_correction=True), False),
    "ep-bh": (lambda p, e, alpha, tau: ep_bh(p, e, alpha), False),
    "wbh-normalized": (lambda p, e, alpha, tau: weighted_p_bh_normalized(p, e, alpha), False),
    # weights on the tie-heavy grid {0, 0.5, 1, 1.5}, made from the e-values
    "weighted-p-bh": (lambda p, e, alpha, tau: weighted_p_bh(p, np.floor(np.minimum(e, 7.0)) % 4 / 2, alpha), False),
    "ep-storey": (lambda p, e, alpha, tau: ep_storey(p, e, alpha, tau), True),
    "wbh-storey-normalized": (lambda p, e, alpha, tau: wbh_storey_normalized(p, e, alpha, tau), True),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(instances(), ALPHA, st.sampled_from([0.3, 0.5, 0.8]))
def test_leave_one_out_self_consistency(pe, alpha, tau):
    """Every family on each instance. In the p scale, i is rejected iff
    K * q_i <= level * R0_i, with q the step-up statistic (the adjusted
    column) and level alpha, or alpha / H_K for p-bh-by. In the e scale,
    e-BH on the e-values and on pe-BH's products h(p) * e rejects i iff
    R0_i * e_i / K >= 1 / alpha."""
    p, e = pe
    k_total = p.size
    for family, (run, storey) in LEAVE_ONE_OUT.items():
        result = run(p, e, alpha, tau)
        level = alpha / harmonic_number(k_total) if family == "p-bh-by" else alpha
        for i in range(k_total):
            if storey and p[i] > tau:
                assert not result.mask[i], (family, i)
                continue
            left_out = p.copy()
            left_out[i] = 0.0
            r0 = int(run(left_out, e, alpha, tau).mask.sum())
            assert result.mask[i] == (k_total * result.adjusted[i] <= level * r0), (family, i)
            assert not result.mask[i] or int(result.mask.sum()) == r0, (family, i)
    product = combine_product(p, e, sqrt_calibrator())
    np.testing.assert_array_equal(pe_bh(p, e, alpha, sqrt_calibrator()).mask, e_bh(product, alpha).mask)
    for family, values in (("e-bh", e), ("pe-bh", product)):
        result = e_bh(values, alpha)
        for i in range(k_total):
            left_out = values.copy()
            left_out[i] = np.inf
            r0 = int(e_bh(left_out, alpha).mask.sum())
            # Python floats round as numpy's do, and overflow to inf quietly
            assert result.mask[i] == (float(r0) * values[i].item() / k_total >= 1.0 / alpha), (family, i)
            assert not result.mask[i] or int(result.mask.sum()) == r0, (family, i)


@FIXED
@example((np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, np.inf, np.inf, 0.0])), sqrt_calibrator())
@given(instances(), st.sampled_from([sqrt_calibrator(), power_calibrator(0.5)]))
def test_combine_product_zero_times_inf_is_inf(pe, calibrator):
    """h(p) * e is +inf wherever p = 0 (h = inf) or e = inf, even against a 0."""
    p, e = pe
    combined = combine_product(p, e, calibrator)
    conclusive = (p == 0.0) | np.isinf(e)
    assert np.isposinf(combined[conclusive]).all()
    if conclusive.all():
        return  # the calibrator refuses the empty rest
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


# whitespace str.strip() drops: blanks, tabs, NBSP, em space, and U+001F,
# which float() drops but numpy does not
PAD = st.sampled_from(["", " ", "\t", "\xa0", " \t", "\u2003", "\x1f"])
NUMBER_CELL = st.builds(lambda a, value, b: f"{a}{value!r}{b}", PAD, st.one_of(P_CELL, E_CELL), PAD)
BLANK_CELL = st.builds(str.__add__, PAD, PAD)
UNPARSABLE_CELL = st.sampled_from(["x", "1.2.3", " 0x1p-2 ", "\t-\t", "nan nan"])
# the p and e rules, which fill a blank cell, and a summary rule, which refuses one
CELL_RULES = [("p", table._HYPOTHESES["p"]), ("e", table._HYPOTHESES["e"]), ("nu", table._SUMMARIES["nu"])]


def _parsed_by_walk(cells, name, blank, check):
    """_parse_cells's result by float(cell.strip() or blank[0]), cell by cell."""
    texts = [cell.strip() or (blank[0] if blank else "") for cell in cells]
    values = []
    for text in texts:
        try:
            values.append(float(text))
        except ValueError:
            return None, check(np.array(values)) or (len(values), f"cannot parse {name}={text!r} as a number")
    values = np.array(values)
    error = check(values)
    if blank:
        values[[not cell.strip() for cell in cells]] = blank[1]
    return values, error


@FIXED
@given(
    st.lists(st.one_of(NUMBER_CELL, BLANK_CELL), min_size=1, max_size=20),
    st.lists(st.tuples(st.integers(0, 20), UNPARSABLE_CELL), max_size=2),
    st.sampled_from(CELL_RULES),
)
@example(["0.5", "", "0.25"], [(2, " x ")], CELL_RULES[0])
@example(["2", "\xa0", "\t0.5\t"], [], CELL_RULES[1])
def test_parse_cells_matches_a_stripped_walk(cells, unparsable, rule):
    """Blank, whitespace-only and padded cells parse as a walk over the
    stripped, filled cells would: the same values, and the same first
    refused cell and message, an unparsable cell after a blank included."""
    for position, cell in unparsable:
        cells.insert(min(position, len(cells)), cell)
    name, (blank, check) = rule
    values, error = table._parse_cells(list(cells), name, blank, check)
    expected_values, expected_error = _parsed_by_walk(cells, name, blank, check)
    assert error == expected_error
    if expected_values is None:
        assert values is None
    else:
        np.testing.assert_array_equal(values, expected_values)


def test_parse_cells_names_an_unparsable_cell_after_a_blank():
    """The row counts the blank before it, and the cell is named stripped."""
    name, (blank, check) = CELL_RULES[0]
    assert table._parse_cells(["0.5", " \t", "\xa0x "], name, blank, check) == (None, (2, "cannot parse p='x' as a number"))


# ids with every character the writer must quote, non-ASCII text and ""
ID = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters(codec="utf-8")), max_size=6)


def _written(path: Path, ids: list, values: list) -> bytes:
    flags = ["1" if v > 0.5 else "0" for v in values]
    table._write_csv(str(path), ["id", "value", "flag"], [ids, np.array(values), flags])
    return path.read_bytes()


@FIXED
@given(st.lists(st.tuples(ID, P_CELL), min_size=1, max_size=12))
def test_csv_writer_matches_csv_module(rows):
    """The block writer reads back cell for cell, writes csv.writer's bytes
    wherever csv.writer quotes enough (no CR), and is blind to block edges."""
    ids, values = [row[0] for row in rows], [row[1] for row in rows]
    cells = [["id", "value", "flag"], *([i, repr(v), "1" if v > 0.5 else "0"] for i, v in rows)]
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "out.csv"
        text = _written(path, ids, values)
        with open(path, newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle)) == cells
        if not any("\r" in i for i in ids):
            reference = io.StringIO()
            csv.writer(reference, lineterminator="\n").writerows(cells)
            assert text == reference.getvalue().encode("utf-8")
        # blocks one row short of, equal to and one row past the whole file
        for block_rows in (len(cells) - 1, len(cells), len(cells) + 1):
            with mock.patch.object(table, "_BLOCK_ROWS", block_rows):
                assert _written(path, ids, values) == text


VALUE = st.one_of(P_CELL, E_CELL, st.sampled_from([-0.0, -np.inf, np.nan]))


@settings(FIXED, max_examples=50)
@given(st.lists(st.tuples(ID, VALUE, st.booleans()), min_size=3, max_size=12), st.sampled_from([1, 2]))
def test_csv_writer_formats_each_shared_array_once(rows, block_rows):
    """The writer's bytes read back as quoted ids, inf, -0.0 and NaN
    written as an empty cell, with one array in two columns, as `adjust`
    writes p-bh's p and adjusted: it formats that array once per block."""
    ids = [row[0] for row in rows]
    values = np.array([row[1] for row in rows])
    blanked = np.where([row[2] for row in rows], np.nan, values)
    columns = [ids, blanked, values, blanked, ["1" if v > 0.5 else "0" for v in values]]
    header = ["id", "blanked", "value", "again", "flag"]
    with (
        tempfile.TemporaryDirectory() as work,
        mock.patch.object(table, "_BLOCK_ROWS", block_rows),
        mock.patch.object(table, "_float_cells", wraps=table._float_cells) as formatted,
    ):
        path = Path(work) / "out.csv"
        table._write_csv(str(path), header, columns)
        written = path.read_bytes()
    # two distinct arrays, each formatted once in each block
    assert formatted.call_count == 2 * -(-len(rows) // block_rows)
    with io.StringIO(written.decode("utf-8"), newline="") as text:
        got = list(csv.reader(text))
    cells = [["" if np.isnan(v) else repr(v) for v in column.tolist()] for column in (blanked, values)]
    assert got == [header, *([i, c, v, c, f] for i, c, v, f in zip(ids, *cells, columns[-1]))]


def _repr_cells(values) -> list:
    """What table._float_cells must return: repr's bytes, NaN as b''."""
    return [b"" if v != v else repr(v).encode() for v in np.asarray(values, dtype=float).tolist()]


@settings(FIXED, max_examples=1000)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_float_kernel_writes_the_bytes_of_repr(values):
    """The float kernel writes repr's bytes for any float, subnormals,
    -0.0, inf and NaN (an empty cell) included."""
    assert table._float_cells(np.array(values, dtype=float)) == _repr_cells(values)


def _powers_and_neighbours() -> np.ndarray:
    """Every power of ten from 1e-5 to 1e17 and of two from 2**-15 to
    2**54, each with its two neighbours, and their negatives: the decade
    edges where log10 rounds and the binades whose lower gap is half."""
    powers = np.concatenate([10.0 ** np.arange(-5, 18), 2.0 ** np.arange(-15, 55)])
    around = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    return np.concatenate([around, -around])


def test_float_kernel_matches_repr_on_powers_ties_and_random_bits():
    """Powers of ten and two with their neighbours, exact rounding ties
    at the 16th and 17th digit, and 10**6 random bit patterns: nine in
    ten with a binary exponent in repr's fixed range, where the kernel
    does the work, the rest drawn over every double."""
    rng = np.random.default_rng(2024)
    ties = np.concatenate(
        [
            8.0 + np.arange(1, 4096, 2) / 2.0**16,  # 17 digits ending in 5: ties at 16 digits
            2.0**50 + np.arange(1000) + 0.75,  # ties at 17 digits
        ]
    )
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
    exponent = np.uint64(0x7FF) << np.uint64(52)
    fixed = rng.integers(1023 - 14, 1023 + 54, 9 * 10**5, dtype=np.uint64) << np.uint64(52)
    bits[: fixed.size] = (bits[: fixed.size] & ~exponent) | fixed
    for values in (_powers_and_neighbours(), ties, bits.view(np.float64)):
        for lo in range(0, values.size, table._BLOCK_ROWS):
            block = values[lo : lo + table._BLOCK_ROWS]
            assert table._float_cells(block) == _repr_cells(block)


def test_float_kernel_formats_common_values_without_repr():
    """Uniform p-values and log-normal e-values never fall back to repr;
    each value outside repr's fixed notation does, once, and so does
    each power of two whose 15 digits do not read back."""
    rng = np.random.default_rng(8192)
    for values in (rng.uniform(1e-4, 1.0, 8192), np.exp(rng.normal(size=8192))):
        with mock.patch.object(table, "repr", wraps=repr, create=True) as fallback:
            assert table._float_cells(values) == _repr_cells(values)
        assert fallback.call_count == 0
    special = [0.0, -0.0, np.inf, -np.inf, 1e-5, 1e16, 5e-324]
    with mock.patch.object(table, "repr", wraps=repr, create=True) as fallback:
        assert table._float_cells(np.array([np.nan, 0.5, *special, 0.25])) == _repr_cells([np.nan, 0.5, *special, 0.25])
    assert [call.args[0] for call in fallback.call_args_list] == special
    powers = 2.0 ** np.arange(-13, 54)  # every power of two repr writes in fixed notation
    with mock.patch.object(table, "repr", wraps=repr, create=True) as fallback:
        table._float_cells(powers)
    assert [call.args[0] for call in fallback.call_args_list] == [2.0**50, 2.0**51, 2.0**52, 2.0**53]


# cells the split path takes, cells only csv.reader can take, raw text
# holding the separators, which csv.reader reads as it likes, and cells over
# the small field size limit the test sets in half of its examples
PLAIN = st.text(st.sampled_from("x1 \t."), max_size=4)
QUOTED = st.text(st.sampled_from('x,"\r\n \t'), max_size=4).map(lambda text: '"' + text.replace('"', '""') + '"')
RAW = st.text(st.sampled_from('x,"\r\n \t'), max_size=3)
LONG = st.sampled_from(["xxxxx", " x  x ", '"xxxxx"'])
ROW = st.lists(PLAIN, min_size=3, max_size=3).map(",".join)
LINE = st.one_of(
    ROW,
    st.lists(st.one_of(PLAIN, PLAIN, QUOTED, RAW, LONG), min_size=3, max_size=3).map(",".join),
    st.lists(st.one_of(PLAIN, PLAIN, PLAIN, LONG), max_size=5).map(",".join),  # wrong counts, blank lines
)
ENDING = st.sampled_from(["\n", "\n", "\r\n", "\r"])


# number cells for the loader's value checks: mostly accepted (blank,
# padded, or readable by float() only once stripped), sometimes refused
ACCEPTED = ["0", "1", " 0.5", "1e-3 ", "", " ", "\t", "-0", ".25", "\x1c1\x1f"]
NUMBER = st.sampled_from(ACCEPTED * 8 + ["inf", "nan", "2", "x"])
NUMBER_ROW = st.tuples(st.text(st.sampled_from("abcdef1 "), max_size=6), NUMBER, NUMBER).map(",".join)
NUMBER_LINE = st.one_of(NUMBER_ROW, NUMBER_ROW, NUMBER_ROW, NUMBER_ROW, st.just(""), LINE)


def _csv_module_table(path: Path):
    """What the loader must return for an id,p,e file, from csv.reader
    rows, stripped cells and float(): the ids, p (NaN where empty) and e
    (1 where empty), or the message of the first refusal. Rows are refused
    first, at the first row csv.reader refuses or that has a wrong field
    count, on the physical line the row ends on; then values, at the
    earliest cell float() cannot read or out of range, p before e on one
    row; then ids, at the second occurrence of the first repeated id."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ["id", "p", "e"]
        rows, lines = [], []
        try:
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
        except csv.Error as exc:
            rows.append(str(exc))
            lines.append(reader.line_num)
    for row, line in zip(rows, lines):
        if isinstance(row, str):
            return f"line {line}: {row}"
        if len(row) != 3:
            return f"line {line}: expected 3 fields, got {len(row)}"
    if not rows:
        return "line 2: no data rows"
    p, e = [], []
    for (_, *cells), line in zip(rows, lines):
        for cell, name, blank, requirement, column in zip(
            cells, "pe", ("0", "1"), ("p-value must lie in [0, 1]", "e-value must lie in [0, +inf]"), (p, e)
        ):
            text = cell.strip() or blank
            try:
                value = float(text)
            except ValueError:
                return f"line {line}: cannot parse {name}={text!r} as a number"
            if not 0 <= value <= (1 if name == "p" else np.inf):
                return f"line {line}: {requirement}, got {value!r}"
            column.append(value if cell.strip() or name == "e" else np.nan)
    first_line = {}
    for row, line in zip(rows, lines):
        first = first_line.setdefault(row[0].strip(), line)
        if first != line:
            return f"line {line}: duplicate id {row[0].strip()!r} (first seen on line {first})"
    return [row[0].strip() for row in rows], list(map(repr, p)), list(map(repr, e))


def _check_loader(lines, last_ended, read_chars, block_rows, field_limit):
    """The loader returns _csv_module_table's ids and floats, or refuses
    with the same message, wherever the blocks are cut, whichever row hands
    the rest to csv.reader and however many of its rows make a block."""
    text = "id,p,e\n" + "".join(line + ending for line, ending in lines)
    if lines and not last_ended:
        text = text[: -len(lines[-1][1])]
    default_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "in.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                handle.write(text)
            expected = _csv_module_table(path)
            with mock.patch.object(table, "_READ_CHARS", read_chars), mock.patch.object(table, "_BLOCK_ROWS", block_rows):
                try:
                    ids, p, e = table._load_table(str(path), table._HYPOTHESES)
                    got = ids, list(map(repr, p.tolist())), list(map(repr, e.tolist()))
                except cli.CliInputError as exc:
                    got = str(exc)
    finally:
        csv.field_size_limit(default_limit)
    assert got == expected


READ_CHARS = st.one_of(st.integers(1, 16), st.just(1 << 20))
BLOCK_ROWS = st.sampled_from([1, 3, table._BLOCK_ROWS])
FIELD_LIMIT = st.sampled_from([4, csv.field_size_limit()])


@FIXED
@given(st.lists(st.tuples(LINE, ENDING), max_size=12), st.booleans(), READ_CHARS, BLOCK_ROWS, FIELD_LIMIT)
def test_csv_reader_matches_csv_module(lines, last_ended, read_chars, block_rows, field_limit):
    """Rows of mostly structural trouble: quotes, separators inside
    cells, wrong field counts, blank lines and oversized cells."""
    _check_loader(lines, last_ended, read_chars, block_rows, field_limit)


@FIXED
@given(st.lists(st.tuples(NUMBER_LINE, ENDING), max_size=12), st.booleans(), READ_CHARS, BLOCK_ROWS)
def test_csv_loader_matches_float_of_csv_cells(lines, last_ended, read_chars, block_rows):
    """Rows of mostly number cells, so that values are parsed, checked
    and refused in every block position."""
    _check_loader(lines, last_ended, read_chars, block_rows, csv.field_size_limit())


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


@FIXED
@given(P_CELL, E_CELL, st.floats(0.0, 1.0), st.floats(0.01, 0.99))
def test_scalar_call_returns_the_vector_bits(p, e, lam, weight):
    """A scalar call gives a Python float with the bits of the 1-element vector call."""
    calls = {
        "sqrt calibrator": lambda p, e: sqrt_calibrator()(p),
        "kappa calibrator": lambda p, e: power_calibrator(0.5)(p),
        "calibrate_e_to_p": lambda p, e: calibrate_e_to_p(e),
        "shift_evalue": lambda p, e: shift_evalue(e, lam),
        "combine_product": combine_product,
        "combine_quotient": combine_quotient,
        "combine_mean": lambda p, e: combine_mean(p, e, weight=weight),
        "combine_bonferroni": combine_bonferroni,
    }
    with np.errstate(over="ignore"):
        for name, call in calls.items():
            scalar = call(p, e)
            vector = call(np.array([p]), np.array([e]))
            assert type(scalar) is float, name
            assert vector.shape == (1,) and _bits(scalar) == _bits(vector), name


def _strict_main(argv) -> tuple:
    """(exit code, stderr) of cli.main(argv), in process, every warning an error."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, stderr.getvalue()


# 0, subnormals, the smallest normal, values near the float maximum and
# inf, each where the command line accepts it, among ordinary values
SMALL = [5e-324, 1e-310, np.finfo(float).tiny, 1e-300]
LARGE = [1e300, 1e308, FLOAT_MAX]
EXTREME_P = st.one_of(st.sampled_from([0.0, *SMALL, 1.0]), st.floats(0.0, 1.0))
EXTREME_E = st.one_of(st.sampled_from([0.0, *SMALL, *LARGE, np.inf]), st.floats(0.0, FLOAT_MAX))
EXTREME_POSITIVE = st.one_of(st.sampled_from([*SMALL, *LARGE]), st.floats(1e-3, 1e3))
EXTREME_FINITE = st.one_of(st.sampled_from([0.0, -0.0, *SMALL, *LARGE, -FLOAT_MAX]), st.floats(-1e3, 1e3))


def _assert_quiet_on(make_argv, header: str, rows):
    """Each argv that make_argv(input, out) lists exits 0 or 2 on the rows,
    warning nothing."""
    with tempfile.TemporaryDirectory() as work:
        source, out = Path(work) / "in.csv", str(Path(work) / "out.csv")
        lines = (f"r{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows))
        source.write_text(header + "\n" + "".join(lines))
        for argv in make_argv(str(source), out):
            code, stderr = _strict_main(argv)
            assert code in (0, 2) and "warning:" not in stderr, (argv, code, stderr)


# two rows at least: on one, adaptive e-BH warns of its documented fallback
@settings(FIXED, max_examples=30)
@given(st.lists(st.tuples(EXTREME_P, EXTREME_E), min_size=2, max_size=8), st.sampled_from(["sqrt", "kappa:0.001"]))
@example([(5e-324, 2.0), (0.5, 1.0)], "kappa:0.001")
def test_adjust_on_extreme_values_warns_nothing(rows, calibrator):
    """Every procedure, with and without --lambda-shift, on p-values from 0
    through subnormals to 1 and e-values from 0 to the float maximum and inf."""

    def argvs(source, out):
        for name in sorted(REGISTRY):
            argv = ["adjust", "--input", source, "--procedure", name, "--calibrator", calibrator, "--out", out]
            yield argv
            yield [*argv, "--lambda-shift", "0.3"]

    _assert_quiet_on(argvs, "id,p,e", rows)


@settings(FIXED, max_examples=40)
@given(st.lists(st.tuples(EXTREME_P, EXTREME_E), min_size=1, max_size=8))
@example([(5e-324, 2.0), (0.5, 1.0)])
def test_combine_on_extreme_values_warns_nothing(rows):
    """All four combiners, with the sqrt calibrator and with kappa 0.001,
    whose power of a subnormal p overflows to inf, its value."""

    def argvs(source, out):
        for mode in ("quotient", "product", "mean", "bonferroni"):
            for calibrator in ("sqrt", "kappa:0.001"):
                yield ["combine", "--input", source, "--mode", mode, "--calibrator", calibrator, "--out", out]

    _assert_quiet_on(argvs, "id,p,e", rows)


@settings(FIXED, max_examples=100)
@given(st.lists(st.tuples(EXTREME_FINITE, EXTREME_POSITIVE, EXTREME_POSITIVE, EXTREME_POSITIVE), min_size=1, max_size=6))
@example([(1.0, 1.0, 0.1, 3.0), (2.0, 1e308, 0.1, 3.0), (3.0, 1.0, 0.1, 3.0)])
@example([(1.0, 1.0, 0.1, 1e-300), (2.0, 2.0, 0.1, 3.0), (3.0, 1.0, 0.1, 3.0)])
def test_moderate_on_extreme_values_warns_nothing(rows):
    """beta_hat from 0 to the float maximum of either sign, and s_sq, v and
    nu from the smallest subnormal to the float maximum."""
    _assert_quiet_on(lambda source, out: [["moderate", "--input", source, "--out", out]], "id,beta_hat,s_sq,v,nu", rows)
