"""The file layer of the command line: reading, parsing and writing tables.

`adjust`, `combine` and `moderate` load their input with `_load_table`,
under the rules `_HYPOTHESES` or `_SUMMARIES`: the reader cuts the file
into blocks, and each block's number cells become float64 arrays and are
checked as it is cut, so only the id cells are kept as str. Every error
names the line it was found on, `_open_input` a byte that is not UTF-8
before any other, and raises `cli.CliInputError` (exit 2). `_read_config`
reads `simulate`'s JSON config. `_write_csv` writes equally long columns,
str cells, bool or float64 arrays, in blocks of `_BLOCK_ROWS` rows, and
`_write_json` the summary beside the output CSV. A file that cannot be
opened, read or written raises `CliInputError` naming its path.

`cli` loads this module, and with it numpy and `core`, only inside the
subcommands, so `epmt --version`, `--help` and usage errors never load it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import os
from operator import eq, itemgetter

import numpy as np

from .cli import CliInputError, _summary_path
from .core import MalformedValue, as_evector, as_pvector


@contextlib.contextmanager
def _naming(action: str, path: str):
    """Raise an OSError of the block as `cannot {action} {path}: {exc}`."""
    try:
        yield
    except OSError as exc:
        raise CliInputError(f"cannot {action} {path}: {exc}") from None


@contextlib.contextmanager
def _open_input(path: str):
    """An input CSV or config open as text. An OSError opening it raises
    `cannot open`, and one reading it, or re-reading the file inside the
    block, `cannot read`, each naming the path. A byte that is not UTF-8
    is named before any error of the block, wherever it lies."""
    with _naming("open", path):
        # utf-8-sig drops the byte-order mark spreadsheet exports and editors put first
        handle = open(path, newline="", encoding="utf-8-sig")
    with _naming("read", path), handle:
        try:
            yield handle
        except (CliInputError, UnicodeDecodeError):
            _fail_undecodable(path)
            raise


@contextlib.contextmanager
def _rereadable(path: str):
    """path, or, for an input that is not a regular file, such as a pipe,
    a temporary copy of it, deleted on exit: an error's line is found by
    reading the input again. An OSError copying it raises `cannot open` or
    `cannot read` naming path, as in _open_input."""
    if os.path.isfile(path):
        yield path
        return
    import shutil
    import tempfile

    with _naming("open", path):
        source = open(path, "rb")
    with _naming("read", path), source, tempfile.NamedTemporaryFile(prefix="epmt-") as copy:
        shutil.copyfileobj(source, copy)
        copy.flush()
        yield copy.name


@contextlib.contextmanager
def _open_output(path: str, mode: str, **kwargs):
    """An output file open for writing; an error opening, writing or
    closing it raises naming the path."""
    with _naming("write", path), open(path, mode, **kwargs) as handle:
        yield handle


# Characters read per pass of the CSV reader. A block's lines and cells are
# all live at once: a 200k-row `adjust` peaked at 63 MB with 1 MiB blocks,
# 58 MB with 64 KiB blocks and 117 MB reading the whole file as one block.
_READ_CHARS = 1 << 20


def _load_table(path: str, rules: dict, required: str | None = None) -> list:
    """The stripped ids of a CSV with header id plus the rules' columns,
    then a float64 array per number column. Errors come in this order: a
    byte that is not UTF-8, the header, a row that cannot be read anywhere
    in the file, the earliest refused value (on one row, the first
    column's; the blocks after its own are only counted), a repeated id,
    then, if required is given, an empty p cell, with required as message."""
    columns = ("id", *rules)
    n = len(columns)
    ids, blocks, rows, error = [], [], 0, None
    with _rereadable(path) as path:
        with _open_input(path) as handle:
            _check_header(handle, columns)
            for flat in _read_blocks(path, handle, n):
                start, rows = rows, rows + len(flat) // n
                if not error:
                    parsed = [_parse_cells(flat[i::n], name, *rule) for i, (name, rule) in enumerate(rules.items(), 1)]
                    errors = [(start + found[0], found[1]) for _, found in parsed if found]
                    # the earliest row's, and on one row the first column's
                    error = min(errors, key=itemgetter(0), default=None)
                    if not error:
                        ids.extend(map(str.strip, flat[::n]))
                        blocks.append([values for values, _ in parsed])
                # freed before the next block is read
                del flat
        if not rows:
            raise CliInputError("line 2: no data rows")
        _fail(path, error)
        _check_unique(path, ids)
        loaded = [ids, *map(np.concatenate, zip(*blocks))]
        if required:
            _fail(path, _flagged(np.isnan(loaded[1]), required))
        return loaded


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


def _read_blocks(path: str, handle, n: int):
    """Yield the rows left in handle as row-major cells, a block of whole
    lines at a time; raise through _fail at the first row that cannot be
    read. The first block that is empty, holds a quote or a CR, or cannot
    be cut whole at its commas hands the rest of the file, from its start,
    to csv.reader, whose rows are yielded _BLOCK_ROWS at a time."""
    rows, tail = 0, ""
    while True:
        chunk = handle.read(_READ_CHARS)
        text = tail + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        block, tail = text[:cut], text[cut:]
        if '"' in block or "\r" in block:
            break
        lines = list(filter(None, block.split("\n")))
        commas = set(map(str.count, lines, itertools.repeat(",")))
        if commas != {n - 1} or max(map(len, lines)) > csv.field_size_limit():
            break
        flat = ",".join(lines).split(",")
        del lines
        rows += len(flat) // n
        yield flat
        # the cells go once the loader drops them too, before the next read
        flat = None
        if not chunk:
            return
    # csv.reader takes a string per line, split at LF, CR and CRLF as the file is
    lines = io.StringIO(block + tail + handle.readline(), newline="")
    flat = []
    try:
        for fields in filter(None, csv.reader(itertools.chain(lines, handle))):
            if len(fields) != n:
                raise csv.Error(f"expected {n} fields, got {len(fields)}")
            flat += fields
            if len(flat) == n * _BLOCK_ROWS:
                rows += _BLOCK_ROWS
                yield flat
                flat = []
    except csv.Error as exc:
        _fail(path, (rows + len(flat) // n, str(exc)))
    yield flat


def _parse_cells(cells: list, name: str, blank, check):
    """A block of one number column as float64, and None or the (row,
    message) of its first refused cell.

    numpy converts the block once: the cells, or, where the rule has a
    blank and the block an empty cell, a copy with those filled with
    blank[0]. numpy strips whitespace as float() does, but for U+001C to
    U+001F, and refuses a whitespace-only cell. A block it refuses is
    walked with float() over its stripped cells, each blank one filled,
    and gives its values or stops at its first unparsable cell.
    """
    # all() stops at the first "", so a block without one costs a single C scan
    empty = [i for i, cell in enumerate(cells) if not cell] if blank and not all(cells) else []
    filled = cells.copy() if empty else cells
    for i in empty:
        filled[i] = blank[0]
    try:
        values = np.array(filled, dtype=float)
    except ValueError:
        texts = [cell.strip() or blank[0] for cell in cells] if blank else list(map(str.strip, cells))
        values = []
        for text in texts:
            try:
                values.append(float(text))
            except ValueError:
                return None, check(np.array(values)) or (len(values), f"cannot parse {name}={text!r} as a number")
        values = np.array(values)
        empty = [i for i, cell in enumerate(cells) if not cell.strip()]
    error = check(values)
    if blank:
        values[empty] = blank[1]
    return values, error


def _read_config(path: str):
    """The parsed JSON of a config file, or raise naming what is wrong with it."""
    with _rereadable(path) as path, _open_input(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise CliInputError(f"config is not valid JSON: {exc}") from None


def _fail_undecodable(path: str):
    """Raise naming the physical line of the first byte that is not UTF-8,
    if the file holds one.

    The text reader decodes ahead of the csv parser, so its error cannot
    say where the byte is. Read again with surrogateescape, each such byte
    is a lone surrogate, U+DC00 plus the byte, that no UTF-8 decodes to;
    universal newlines end the lines at LF, CR and CRLF, as csv does.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line, text in enumerate(handle, 1):
            if not text.isascii():  # one C scan clears the common line
                try:
                    text.encode()
                except UnicodeEncodeError as exc:
                    byte = ord(text[exc.start]) - 0xDC00
                    raise CliInputError(f"line {line}: byte 0x{byte:02x} is not valid UTF-8") from None


def _data_line(path: str, row: int) -> int:
    """The physical line on which data row `row` ends.

    Only the error path re-reads the file for this, up to that row;
    counting physical lines keeps the number right after a quoted cell
    that spans lines.
    """
    with _open_input(path) as handle:
        reader = csv.reader(handle)
        next(reader)
        try:
            next(itertools.islice(filter(None, reader), row, None), None)
        except csv.Error:
            # a cell over csv's size limit ends the rows on the line it is on
            pass
    return reader.line_num


def _fail(path: str, error):
    """Raise naming the line of a (row, message) error's data row, unless
    error is None."""
    if error:
        row, message = error
        raise CliInputError(f"line {_data_line(path, row)}: {message}")


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


def _positive(name: str):
    """The check of a column whose values must be positive and finite."""
    return lambda values: _flagged(~((values > 0) & (values < np.inf)), f"{name} must be positive and finite")


# The rules of _load_table, (blank, check) per number column: an empty cell
# reads as blank[0] for check and holds blank[1] after it, or is unparsable if
# blank is None; check(values) gives the (row, message) of the first refused.
_HYPOTHESES = {
    "p": (("0", np.nan), lambda values: _refused(as_pvector, values, "p-value must lie in [0, 1]")),
    "e": (("1", 1.0), lambda values: _refused(as_evector, values, "e-value must lie in [0, +inf]")),
}
_SUMMARIES = {
    "beta_hat": (None, lambda values: _flagged(~np.isfinite(values), "beta_hat must be finite")),
    **{name: (None, _positive(name)) for name in ("s_sq", "v", "nu")},
}


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
            raise CliInputError(
                f"line {_data_line(path, row)}: duplicate id {row_id!r} (first seen on line {_data_line(path, first)})"
            )


# Rows formatted per block, and csv.reader rows handed to the loader per pass.
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

    A column is a list of str cells, quoted as needed, a bool array
    written as 1 and 0, or a float64 array written by _float_cells. Two
    columns holding the same float64 array share its cells.
    """
    floats, block = {}, []
    for column in columns:
        if isinstance(column, list):
            block.append(list(map(str.encode, _quoted(column[lo:hi]))))
            continue
        if column.dtype == bool:
            block.append(np.where(column[lo:hi], b"1", b"0").tolist())
            continue
        if id(column) not in floats:
            floats[id(column)] = _float_cells(column[lo:hi])
        block.append(floats[id(column)])
    return b"\n".join(map(b",".join, zip(*block))) + b"\n"


def _write_csv(path: str, header: list, columns: list):
    """Write a UTF-8 CSV of the header over equally long columns.

    A column is a list of str cells, a bool array or a float64 array,
    whose NaNs are left empty. Each block of _BLOCK_ROWS rows is formatted
    by _format_block and written as it is made, in this process; the
    bytes do not depend on the locale.
    """
    with _open_output(path, "wb") as handle:
        handle.write(",".join(_quoted(header)).encode() + b"\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            handle.write(_format_block(columns, lo, lo + _BLOCK_ROWS))


def _write_json(out_path: str, suffix: str, payload: dict):
    """Write payload beside the output CSV, as its stem plus suffix."""
    with _open_output(_summary_path(out_path, suffix), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
