"""Command line interface.

Subcommands:
  adjust    run a multiple-testing procedure on a CSV of hypotheses
  simulate  replicate scenarios from a config file and report error rates
  combine   merge each (p, e) pair into one p-value or e-value
  moderate  fit the moderated-t pipeline on summary statistics

Exit codes: 0 success (even with zero rejections), 2 malformed input
(reported with the first offending line or key) or an output that cannot
be written, 3 usage errors.

CSV conventions: floats are written with repr-level precision, the
shortest round-trip (at most 17 significant digits); infinity is the
literal `inf`, and an empty cell means missing. A cell holding a comma,
a quote, CR or LF is quoted. Output is UTF-8 in any locale.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from operator import eq

import numpy as np

from . import __version__
from .calib import (
    BadCalibrator,
    BadLambda,
    combine_bonferroni,
    combine_mean,
    combine_product,
    combine_quotient,
    parse_calibrator,
    shift_evalue,
)
from .core import MalformedValue, as_evector, as_pvector
from .procedures import REGISTRY, ProcedureSpec

# `sim` and `constructors` import scipy, which `adjust` and `combine` never
# need: they load inside the subcommands that call them.


class CliInputError(Exception):
    """Malformed input file or config; maps to exit code 2."""


def _open_input(path: str):
    """Open an input CSV or config as text, or raise naming the path."""
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports and editors put first
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CliInputError(f"cannot open {path}: {exc}") from None


def _open_output(path: str, mode: str, **kwargs):
    """Open an output file for writing, or raise naming the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from None


def _check_out_dir(path: str):
    """Refuse an --out path whose directory does not exist.

    Runs before any input is read or worker forked, so the refusal costs
    nothing; _open_output still names any other write error at the end.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise CliInputError(f"cannot write {path}: no directory {directory}")


# Characters read per pass of the CSV reader. A block's lines and cells are
# all live at once: a 200k-row `adjust` peaked at 88 MB with 1 MiB blocks,
# 87 MB with 64 KiB blocks and 117 MB reading the whole file as one block.
_READ_CHARS = 1 << 20


def _read_columns(path: str, columns: tuple) -> list:
    """The stripped cells of a CSV with the given header, one list per column.

    Blank rows are skipped; every other row must have one field per column.
    The file is read a block of whole lines at a time, and each block is cut
    at its commas. The first block holding a quote or a CR, or one that
    cannot be cut whole, hands the rest of the file, from that block's
    start, to csv.reader, which reads and refuses rows one at a time.
    """
    cells = [[] for _ in columns]
    with _open_input(path) as handle:
        try:
            _check_header(handle, columns)
            _fail(path, [_read_blocks(handle, cells)])
        except (CliInputError, UnicodeDecodeError):
            # a byte that is not UTF-8 is named before any other error,
            # wherever the text reader's decoded chunks happen to end
            _fail_undecodable(path)
            raise
    if not cells[0]:
        raise CliInputError("line 2: no data rows")
    return cells


def _check_header(handle, columns: tuple):
    """Read the header row, leaving the handle at the first data line, or
    raise naming what is wrong with it."""
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise CliInputError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise CliInputError("line 1: empty file, expected a header row")
    if [h.strip() for h in header] != list(columns):
        raise CliInputError(f"line 1: expected header {','.join(columns)}, got {','.join(header)}")


def _read_blocks(handle, cells: list):
    """Append the data rows left in handle to cells, one list per column.

    Returns None, or the (row, message) of the first row that cannot be read.
    """
    tail = ""
    while True:
        chunk = handle.read(_READ_CHARS)
        text = tail + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        block, tail = text[:cut], text[cut:]
        if not _split_block(block, cells):
            import io

            # csv.reader takes a string per line, split at LF, CR and CRLF as the file is
            lines = io.StringIO(block + tail + handle.readline(), newline="")
            return _read_rows(csv.reader(itertools.chain(lines, handle)), cells)
        if not chunk:
            return None


def _split_block(block: str, cells: list) -> bool:
    """Append the rows of a block to cells if its lines can be cut at commas.

    They can when the block holds no quote and no CR, and every non-blank
    line holds one field per column and fits csv's size limit. Otherwise
    returns False and leaves cells alone; so does an empty block.
    """
    if '"' in block or "\r" in block:
        return False
    lines = list(filter(None, block.split("\n")))
    commas = set(map(str.count, lines, itertools.repeat(",")))
    if commas != {len(cells) - 1} or max(map(len, lines)) > csv.field_size_limit():
        return False
    _add_cells(cells, ",".join(lines).split(","))
    return True


def _read_rows(reader, cells: list):
    """Append csv.reader's non-blank rows to cells, _BLOCK_ROWS at a time.

    Returns None, or the (row, message) of the first row csv.reader refuses
    or that holds a wrong number of fields.
    """
    n = len(cells)
    flat = []
    try:
        for fields in filter(None, reader):
            if len(fields) != n:
                return len(cells[0]) + len(flat) // n, f"expected {n} fields, got {len(fields)}"
            flat += fields
            if len(flat) == n * _BLOCK_ROWS:
                _add_cells(cells, flat)
                flat = []
    except csv.Error as exc:
        return len(cells[0]) + len(flat) // n, str(exc)
    _add_cells(cells, flat)
    return None


def _add_cells(cells: list, flat: list):
    """Append row-major cells, stripped, to the columns."""
    n = len(cells)
    for i, column in enumerate(cells):
        column.extend(map(str.strip, flat[i::n]))


def _fail_undecodable(path: str):
    """Raise naming the physical line of the first byte that is not UTF-8,
    if the file holds one.

    The text reader decodes ahead of the csv parser, so the error it
    raises cannot say where the byte is; the raw bytes can. They are
    decoded, and on finding such a byte read again up to it to count its
    line, _READ_CHARS bytes at a time.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    with open(path, "rb") as handle:
        end = 0
        while True:
            chunk = handle.read(_READ_CHARS)
            end += len(chunk)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the bytes the decoder held back, then chunk
                bad, byte = end - len(exc.object) + exc.start, exc.object[exc.start]
                break
            if not chunk:
                return
        handle.seek(0)
        breaks, after_cr = 0, False
        while handle.tell() < bad:
            chunk = handle.read(min(_READ_CHARS, bad - handle.tell()))
            # breaks at LF, CR and CRLF, as csv and bytes.splitlines count
            # them, a CRLF split between two reads once
            breaks += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            breaks -= after_cr and chunk.startswith(b"\n")
            after_cr = chunk.endswith(b"\r")
    raise CliInputError(f"line {breaks + 1}: byte 0x{byte:02x} is not valid UTF-8")


def _data_lines(path: str) -> list:
    """The physical line on which each data row ends.

    Only the error path re-reads the file for this; counting physical
    lines keeps the number right after a quoted cell that spans lines.
    """
    lines = []
    with _open_input(path) as handle:
        reader = csv.reader(handle)
        next(reader)
        try:
            for row in reader:
                if row:
                    lines.append(reader.line_num)
        except csv.Error:
            # a cell over csv's size limit ends the rows on the line it is on
            lines.append(reader.line_num)
    return lines


def _fail(path: str, errors: list):
    """Raise for the earliest data row among (row, message) errors.

    On a tie the first listed wins, so callers list them in checking order.
    """
    found = [error for error in errors if error is not None]
    if found:
        row, message = min(found, key=lambda error: error[0])
        raise CliInputError(f"line {_data_lines(path)[row]}: {message}")


def _parse_column(cells: list, name: str, fill: str = ""):
    """Floats of a column of cells, empty cells reading as fill.

    Returns (values, error): error is None, or the (row, message) of the
    first unparsable cell, and then values stop before that row.
    """
    if fill and "" in cells:
        cells = [cell or fill for cell in cells]
    try:
        return np.array(cells, dtype=float), None
    except ValueError:
        values = []
        for text in cells:
            try:
                values.append(float(text))
            except ValueError:
                return np.array(values), (len(values), f"cannot parse {name}={text!r} as a number")


def _refused(check, values: np.ndarray, requirement: str):
    """(row, message) of the first value a core vector check refuses, or None."""
    try:
        if values.size:
            check(values)
    except MalformedValue as exc:
        return exc.record_id, f"{requirement}, got {values[exc.record_id].item()!r}"
    return None


def _flagged(bad: np.ndarray, message: str):
    """(row, message) of the first flagged value, or None."""
    return (int(np.argmax(bad)), message) if bad.any() else None


def _load_hypotheses(path: str):
    """Parse an id,p,e file: returns (ids, p, e).

    A missing p reads as NaN (as 0 for the range check), a missing e as 1.
    """
    ids, p_cells, e_cells = _read_columns(path, ("id", "p", "e"))
    p, p_error = _parse_column(p_cells, "p", fill="0")
    e, e_error = _parse_column(e_cells, "e", fill="1")
    p_error = _refused(as_pvector, p, "p-value must lie in [0, 1]") or p_error
    e_error = _refused(as_evector, e, "e-value must lie in [0, +inf]") or e_error
    _fail(path, [p_error, e_error])
    p[[not cell for cell in p_cells]] = np.nan
    _check_unique(path, ids)
    return ids, p, e


def _check_unique(path: str, ids: list):
    """Refuse a repeated id, naming the line of its second occurrence."""
    # a sorted copy holds only references, far less memory than a set of ids
    ordered = sorted(ids)
    if not any(map(eq, ordered, itertools.islice(ordered, 1, None))):
        return
    first_row = {}
    for row, row_id in enumerate(ids):
        first = first_row.setdefault(row_id, row)
        if first != row:
            lines = _data_lines(path)
            raise CliInputError(
                f"line {lines[row]}: duplicate id {row_id!r} (first seen on line {lines[first]})"
            )


# Rows formatted per block, and csv.reader rows turned into columns per pass.
# A written block's cells are all live at once: with a whole-file reader, a
# 200k-row `adjust` peaked at 106 MB with 8k-row blocks, 124 MB with 64k-row
# blocks and 145 MB with one block.
_BLOCK_ROWS = 8192
_SPECIAL = (",", '"', "\r", "\n")


def _quoted(cells: list) -> list:
    """The cells, each holding a comma, quote, CR or LF quoted as RFC 4180 asks.

    One scan of the joined cells clears a block with none, the common case.
    """
    joined = "".join(cells)
    if not any(char in joined for char in _SPECIAL):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if any(c in cell for c in _SPECIAL) else cell for cell in cells]


# Veltkamp's splitter, 2**27 + 1: it cuts a double into two halves of at
# most 26 significant bits, whose products are exact.
_SPLIT = 134217729.0


@functools.cache
def _float_tables():
    """The tables of _float_cells, built on its first call.

    10**k for k <= 22, each an exact double, with its Veltkamp halves; the
    ASCII of every 4-digit group as a uint32, then b"-0.\\0"; and the
    layout templates. A template gives, for one sign, decimal point
    position and digit count, the byte of a row that each byte of the
    repr copies. A row is six uint32: b"-0.\\0", then the 17 digits at
    bytes 7 to 23. Byte 3, the NUL, pads the repr to 24 bytes.
    """
    powers = 10.0 ** np.arange(23)
    split = _SPLIT * powers
    high = split - (split - powers)
    ascii = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
    groups = np.append(ascii.astype(np.uint8).view(np.uint32), np.frombuffer(b"-0.\0", np.uint32))
    templates = np.full((2, 20, 17, 24), 3, np.int32)
    for sign in (0, 1):
        for point in range(-3, 17):
            for count in range(1, 18):
                digits = list(range(7, 7 + count))
                if point <= 0:  # 0.000ddd
                    body = [1, 2] + [1] * -point + digits
                elif point < count:  # ddd.ddd
                    body = digits[:point] + [2] + digits[point:]
                else:  # ddd000.0
                    body = digits + [1] * (point - count) + [2, 1]
                body = [0] * sign + body
                templates[sign, point + 3, count - 1, : len(body)] = body
    return powers, high, powers - high, groups, templates.reshape(-1, 24)


def _times_power_of_ten(a: np.ndarray, k: np.ndarray):
    """(ph, pl): ph = fl(a * 10**k) and ph + pl = a * 10**k exactly.

    Dekker's (1971) two-product, which needs no fused multiply-add: it
    holds for any product that neither overflows nor underflows.
    """
    powers, p_high, p_low = _float_tables()[:3]
    split = _SPLIT * a
    a_high = split - (split - a)
    a_low = a - a_high
    b_high, b_low = p_high[k], p_low[k]
    ph = a * powers[k]
    return ph, ((a_high * b_high - ph) + a_high * b_low + a_low * b_high) + a_low * b_low


def _float_cells(values: np.ndarray) -> list:
    """repr(v).encode() of each value of a float64 array, and b"" for NaN.

    A finite x with 1e-4 <= |x| < 1e16, which repr writes in fixed
    notation, is written without repr. Scaled by 10**k into [1e16, 1e17),
    |x| is y = ph + pl exactly, so its 15-, 16- and 17-digit roundings
    follow from int64 arithmetic. A rounding D reads back as x iff
    |D - y| is less than the half gap to x's neighbour on D's side, times
    10**k, which is exact; below a power of two that gap is half the one
    above. The first rounding of 15, 16 and 17 digits that reads back,
    stripped of trailing zeros, is repr's: the fewest digits, then the
    closest. Each value whose digits this cannot prove goes to repr: 0,
    inf and exponent notation, an exact rounding tie, a difference from y
    that rounds onto the edge of the interval, a power of two whose 15
    digits fail, and a rounding that carries into the next decade.
    """
    powers, _, _, groups, templates = _float_tables()
    size = values.size
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e16)
    a = np.where(fixed, a, 1.0)  # any value in range: the rest go to repr
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    ph, pl = _times_power_of_ten(a, k)
    # log10 rounds across a decade edge: one step moves y back into range
    under = (ph < 1e16) | ((ph == 1e16) & (pl < 0))
    over = (ph > 1e17) | ((ph == 1e17) & (pl >= 0))
    moved = np.flatnonzero(under | over)
    if moved.size:
        k[moved] += np.where(under[moved], 1, -1)
        ph[moved], pl[moved] = _times_power_of_ten(a[moved], k[moved])
    # ph > 2**53 is an even integer and |pl| <= 8, so y = top + f with the
    # integer top = ph + floor(pl) and f = pl - floor(pl) in [0, 1): f > 0
    # and f > 1/2 are exact comparisons of pl
    whole = ph.astype(np.int64)
    floor = np.floor(pl)
    top = whole + floor.astype(np.int64)
    frac = pl > floor
    half = floor + 0.5
    q10 = top // 10
    r10 = top - q10 * 10
    q100 = top // 100
    r100 = top - q100 * 100
    d15 = (q100 + ((r100 > 50) | ((r100 == 50) & frac))) * 100
    d16 = (q10 + ((r10 > 5) | ((r10 == 5) & frac))) * 10
    d17 = top + (pl > half)  # always reads back
    # half the gap above |x| times 10**k, exact: 10**k is 2**k * 5**k, 5**k < 2**53
    fraction, exponent = np.frexp(a)
    gap = np.ldexp(powers[k], exponent - 54)
    power_of_two = fraction == 0.5
    gap_below = np.where(power_of_two, gap / 2, gap)

    def reads_back(rounded):
        # D - ph is a small exact integer, and rounding the difference to
        # D - y is monotonic: it decides against the gaps unless it lands on one
        diff = (rounded - whole).astype(float) - pl
        return (diff < gap) & (diff > -gap_below), (diff == gap) | (diff == -gap_below)

    ok15, edge15 = reads_back(d15)
    ok16, edge16 = reads_back(d16)
    mantissa = np.where(ok15, d15, np.where(ok16, d16, d17))
    tie = np.where(ok16, (r10 == 5) & ~frac, pl == half)
    slow = ~fixed | edge15 | (~ok15 & (power_of_two | edge16 | tie)) | (mantissa >= 10**17)

    rows = np.empty((size, 6), np.uint32)
    rows[:, 0] = groups[10000]
    high = mantissa // 10**8
    first = high // 10**8
    rows[:, 1] = groups[first % 10]  # 10 only on a carry, which goes to repr
    for column, part in ((2, high - first * 10**8), (4, mantissa - high * 10**8)):
        upper = part // 10000
        rows[:, column] = groups[upper]
        rows[:, column + 1] = groups[part - upper * 10000]
    text = rows.view(np.uint8)
    count = 17 - np.argmax(text[:, :6:-1] != ord("0"), axis=1)  # digits up to the last nonzero one
    layout = templates.take(((values < 0) * 20 + 20 - k) * 17 + count - 1, axis=0)
    layout += np.arange(0, size * 24, 24)[:, None]
    cells = text.ravel().take(layout).view("S24").ravel().tolist()
    where = np.flatnonzero(slow)
    for row, value in zip(where.tolist(), values[where].tolist()):
        cells[row] = repr(value).encode() if value == value else b""
    return cells


def _format_block(columns: list, lo: int, hi: int) -> bytes:
    """UTF-8 CSV of rows lo to hi of the columns, each row ending in LF.

    A column is a list of str cells, quoted as needed, or a float64 array
    written by _float_cells. Two columns holding the same array share its
    cells.
    """
    floats, block = {}, []
    for column in columns:
        if isinstance(column, list):
            block.append(list(map(str.encode, _quoted(column[lo:hi]))))
            continue
        if id(column) not in floats:
            floats[id(column)] = _float_cells(column[lo:hi])
        block.append(floats[id(column)])
    return b"\n".join(map(b",".join, zip(*block))) + b"\n"


def _write_csv(path: str, header: list, columns: list):
    """Write a UTF-8 CSV of the header over equally long columns.

    A column is a list of str cells or a float64 array, whose NaNs are
    left empty. Each block of _BLOCK_ROWS rows is formatted by
    _format_block and written as it is made, in this process; the bytes
    do not depend on the locale.
    """
    with _open_output(path, "wb") as handle:
        handle.write(",".join(_quoted(header)).encode() + b"\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            handle.write(_format_block(columns, lo, lo + _BLOCK_ROWS))


def _write_json(out_path: str, suffix: str, payload: dict):
    """Write payload beside the output CSV, as its stem plus suffix."""
    stem = out_path[:-4] if out_path.endswith(".csv") else out_path
    with _open_output(stem + suffix, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_adjust(args) -> int:
    try:
        spec = ProcedureSpec(
            args.procedure, alpha=args.alpha, tau=args.tau, calibrator=args.calibrator, merging=args.merging
        )
    except (ValueError, KeyError, BadCalibrator) as exc:
        _usage_error(str(exc))
    ids, p, e = _load_hypotheses(args.input)
    if spec.needs_p:
        _fail(args.input, [_flagged(np.isnan(p), f"procedure {spec.name} needs a p-value but the cell is empty")])
    if args.lambda_shift is not None:
        try:
            e = shift_evalue(e, args.lambda_shift)
        except BadLambda as exc:
            _usage_error(str(exc))
    result = spec.build()(p, e)
    _write_csv(
        args.out,
        ["id", "p", "e", "adjusted", "rejected"],
        [ids, p, e, result.adjusted, np.where(result.mask, "1", "0").tolist()],
    )
    _write_json(
        args.out,
        ".json",
        {
            "procedure": spec.name,
            "alpha": spec.alpha,
            "k_star": result.threshold_index,
            "n_rejected": result.threshold_index,
        },
    )
    return 0


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(3)


def run_campaign(*args, **kwargs):
    """sim.run_campaign, importing sim on the first call.

    cmd_simulate calls it through this module global, where a tracer can
    wrap it without loading sim for the other subcommands.
    """
    from . import sim

    return sim.run_campaign(*args, **kwargs)


def cmd_simulate(args) -> int:
    from .sim import ConfigError, TooManyReplicates, campaign_from_config, scenario_to_dict

    try:
        with _open_input(args.config) as handle:
            config = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        _fail_undecodable(args.config)
    try:
        scenarios, specs = campaign_from_config(config)
        campaign = run_campaign(
            scenarios,
            specs,
            replicates=args.reps,
            master_seed=args.seed,
            parallelism=args.parallelism,
        )
    except ConfigError as exc:
        raise CliInputError(str(exc)) from None
    except TooManyReplicates as exc:
        _usage_error(f"--reps {args.reps} is too large: {exc}")
    described = [scenario_to_dict(s) for s in scenarios]
    labels = [f"{scenario['kind']}-{index}" for index, scenario in enumerate(described)]
    rates = ["fdr", "se_fdr", "power", "se_power", "fwer", "se_fwer", "pfer", "se_pfer"]
    pairs = [(index, spec.name) for index in range(len(labels)) for spec in specs]
    metrics = [campaign.metrics[pair] for pair in pairs]
    _write_csv(
        args.out,
        ["scenario", "procedure", *rates, "replicates"],
        [
            [labels[index] for index, _ in pairs],
            [name for _, name in pairs],
            *(np.array([getattr(metric, rate) for metric in metrics]) for rate in rates),
            [str(metric.replicates) for metric in metrics],
        ],
    )
    manifest = {
        "master_seed": args.seed,
        "replicates": args.reps,
        "package_version": __version__,
        "scenarios": described,
        "procedures": [asdict(spec) for spec in specs],
    }
    _write_json(args.out, ".manifest.json", manifest)
    return 0


_COMBINE_MODES = ("quotient", "product", "mean", "bonferroni")


def cmd_combine(args) -> int:
    if args.mode in ("product", "mean") and args.calibrator is None:
        _usage_error(f"--calibrator is required for mode {args.mode!r}")
    calibrator = None
    if args.calibrator is not None:
        try:
            calibrator = parse_calibrator(args.calibrator)
        except BadCalibrator as exc:
            _usage_error(str(exc))
    ids, p, e = _load_hypotheses(args.input)
    _fail(args.input, [_flagged(np.isnan(p), "combiners need a p-value but the cell is empty")])
    if args.mode == "quotient":
        combined = combine_quotient(p, e)
    elif args.mode == "bonferroni":
        combined = combine_bonferroni(p, e)
    elif args.mode == "product":
        combined = combine_product(p, e, calibrator)
    else:
        try:
            combined = combine_mean(p, e, calibrator, weight=args.mean_weight)
        except BadLambda as exc:
            _usage_error(str(exc))
    _write_csv(args.out, ["id", "combined"], [ids, combined])
    return 0


_MODERATE_COLUMNS = ("id", "beta_hat", "s_sq", "v", "nu")


def cmd_moderate(args) -> int:
    from .constructors import fit_moderated_model, moderated_t_evalue

    ids, *cells = _read_columns(args.input, _MODERATE_COLUMNS)
    (beta_hat, beta_error), *positive = (
        _parse_column(column, name) for column, name in zip(cells, _MODERATE_COLUMNS[1:])
    )
    _fail(
        args.input,
        [_flagged(~np.isfinite(beta_hat), "beta_hat must be finite") or beta_error]
        + [
            _flagged(~((values > 0) & (values < np.inf)), f"{name} must be positive and finite") or error
            for name, (values, error) in zip(_MODERATE_COLUMNS[2:], positive)
        ],
    )
    s_sq, v, nu = (values for values, _ in positive)
    _check_unique(args.input, ids)
    try:
        model, t_tilde, p = fit_moderated_model(beta_hat, s_sq, v, nu)
    except MalformedValue as exc:
        raise CliInputError(str(exc)) from None
    e = moderated_t_evalue(t_tilde, model)
    _write_csv(args.out, ["id", "t_tilde", "p", "e"], [ids, t_tilde, p, e])
    _write_json(
        args.out,
        ".json",
        {
            "df_prior": "inf" if math.isinf(model.df_prior) else model.df_prior,
            "s2_prior": model.s2_prior,
            "gamma": model.gamma,
        },
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for bad
    input files, so usage errors exit 3 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="epmt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"epmt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    adjust = sub.add_parser("adjust", help="run a multiple-testing procedure on a CSV of hypotheses")
    adjust.add_argument("--input", required=True, help="CSV with header id,p,e (empty cell = missing)")
    adjust.add_argument("--procedure", required=True, choices=sorted(REGISTRY))
    adjust.add_argument("--alpha", type=float, default=0.05, help="target level (default 0.05)")
    adjust.add_argument("--tau", type=float, default=0.5, help="Storey threshold (default 0.5)")
    adjust.add_argument(
        "--calibrator",
        default="sqrt",
        help="p-to-e calibrator: sqrt or kappa:<value> (default sqrt)",
    )
    adjust.add_argument(
        "--lambda-shift",
        type=float,
        default=None,
        metavar="LAMBDA",
        help="discount e-values toward 1 before running: lam + (1-lam)*e",
    )
    adjust.add_argument("--merging", choices=("mean", "max"), default="mean", help="adaptive-e-bh merge rule")
    adjust.add_argument("--out", required=True, help="output CSV path; a .json summary lands next to it")
    adjust.set_defaults(func=cmd_adjust)

    simulate = sub.add_parser("simulate", help="replicate scenarios from a config file")
    simulate.add_argument("--config", required=True, help="JSON config with scenarios and procedures")
    simulate.add_argument("--reps", type=int, default=100, help="replicates per scenario (default 100)")
    simulate.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    simulate.add_argument("--parallelism", type=int, default=1, help="worker processes (default 1)")
    simulate.add_argument("--out", required=True, help="output CSV path; a .manifest.json lands next to it")
    simulate.set_defaults(func=cmd_simulate)

    combine = sub.add_parser("combine", help="merge each (p, e) pair into one value")
    combine.add_argument("--input", required=True, help="CSV with header id,p,e")
    combine.add_argument("--mode", required=True, choices=_COMBINE_MODES)
    combine.add_argument("--calibrator", default=None, help="required for product and mean modes")
    combine.add_argument(
        "--mean-weight",
        type=float,
        default=0.5,
        help="calibrated-p weight of the mean combiner, strictly in (0, 1) (default 0.5)",
    )
    combine.add_argument("--out", required=True, help="output CSV path")
    combine.set_defaults(func=cmd_combine)

    moderate = sub.add_parser("moderate", help="fit the moderated-t pipeline on summary statistics")
    moderate.add_argument("--input", required=True, help="CSV with header id,beta_hat,s_sq,v,nu")
    moderate.add_argument("--out", required=True, help="output CSV path; a .json summary lands next to it")
    moderate.set_defaults(func=cmd_moderate)
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():  # the caller's filters still apply: `-W error` raises
        warnings.showwarning = lambda message, *where: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            if args.command == "simulate":
                if args.reps < 1:
                    _usage_error("--reps must be >= 1")
                if args.seed < 0:
                    _usage_error("--seed must be >= 0")
                if args.parallelism < 1:
                    _usage_error("--parallelism must be >= 1")
            _check_out_dir(args.out)
            return args.func(args)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
        except CliInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entry():  # console-script hook
    sys.exit(main())
