"""The file layer of the command line: reading, parsing and writing tables.

`adjust`, `combine` and `moderate` load their input with `_load_table`,
under the rules `_HYPOTHESES` or `_SUMMARIES`: the reader cuts the file
into blocks, and each block's number cells become float64 arrays and are
checked as it is cut, so only the id cells are kept as str. Every error
names the line it was found on and raises `cli.CliInputError` (exit 2).
`_read_config` reads `simulate`'s JSON config. `_write_csv` writes equally
long columns, str cells, bool or float64 arrays, in blocks of `_BLOCK_ROWS`
rows, and `_write_json` the summary beside the output CSV.

`cli` loads this module, and with it numpy and `core`, only inside the
subcommands, so `epmt --version`, `--help` and usage errors never load it.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import io
import itertools
import json
from operator import eq, itemgetter

import numpy as np

from .cli import CliInputError, _summary_path
from .core import MalformedValue, as_evector, as_pvector


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
    with _open_input(path) as handle:
        try:
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
        except (CliInputError, UnicodeDecodeError):
            # a byte that is not UTF-8 is named before any other error,
            # wherever the text reader's decoded chunks happen to end
            _fail_undecodable(path)
            raise
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
    message) of its first refused cell. Cells go to numpy unstripped, as
    float() strips whitespace. A block that fails is converted again with
    its blank cells filled. One that still fails (numpy strips none of
    U+001C-U+001F, which str.strip does) is stripped, filled and converted,
    and if that fails too, walked to its first unparsable cell."""
    values, empty = None, []
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        # the cells that `not cell.strip()` finds blank, in one scan with no stripped copy
        empty = [i for i, cell in enumerate(cells) if not cell or cell.isspace()]
        if blank and empty:
            filled = cells.copy()
            for i in empty:
                filled[i] = blank[0]
            with contextlib.suppress(ValueError):
                values = np.array(filled, dtype=float)
    if values is None:
        cells = list(map(str.strip, cells))
        cells = [cell or blank[0] for cell in cells] if blank else cells
        try:
            values = np.array(cells, dtype=float)
        except ValueError:
            values = []
            for text in cells:
                try:
                    values.append(float(text))
                except ValueError:
                    break
            return None, check(np.array(values)) or (len(values), f"cannot parse {name}={text!r} as a number")
    error = check(values)
    if blank:
        values[empty] = blank[1]
    return values, error


def _read_config(path: str):
    """The parsed JSON of a config file, or raise naming what is wrong with it."""
    try:
        with _open_input(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        _fail_undecodable(path)
        raise


def _fail_undecodable(path: str):
    """Raise naming the physical line of the first byte that is not UTF-8,
    if the file holds one.

    The text reader decodes ahead of the csv parser, so the error it
    raises cannot say where the byte is; the raw bytes can. They are
    decoded _READ_CHARS bytes at a time, counting line breaks as they go.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    breaks, after_cr, error = 0, False, None
    with open(path, "rb") as handle:
        while not error:
            chunk = handle.read(_READ_CHARS)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the bytes the decoder held back, the start of
                # one character and so no break, then chunk
                error, chunk = exc, exc.object[: exc.start]
            else:
                if not chunk:
                    return
            # breaks at LF, CR and CRLF, as csv and bytes.splitlines count
            # them, a CRLF split between two reads once
            breaks += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            breaks -= after_cr and chunk.startswith(b"\n")
            after_cr = chunk.endswith(b"\r")
    raise CliInputError(f"line {breaks + 1}: byte 0x{error.object[error.start]:02x} is not valid UTF-8")


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


def _fail(path: str, error):
    """Raise naming the line of a (row, message) error's data row, unless
    error is None."""
    if error:
        row, message = error
        raise CliInputError(f"line {_data_lines(path)[row]}: {message}")


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
            lines = _data_lines(path)
            raise CliInputError(
                f"line {lines[row]}: duplicate id {row_id!r} (first seen on line {lines[first]})"
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
