"""Tests for the command line interface.

Most tests call cli.main() in process for speed; subprocess tests cover
the `python -m` entry point, the output's bytes in a C locale and what a
fresh import loads.
"""

import csv
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from epmt import cli, table
from epmt.constructors import fit_moderated_model, moderated_t_evalue, moderated_t_pvalue
from epmt.procedures import SingleHypothesis, ep_bh, ep_storey


def write(path, text):
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


HYP = """id,p,e
g1,0.001,20
g2,0.02,5
g3,0.3,1.5
g4,0.9,
g5,0.04,0.5
"""


# ---------------------------------------------------------------- adjust


def test_adjust_matches_library(tmp_path):
    inp = write(tmp_path / "hyp.csv", HYP)
    out = tmp_path / "rej.csv"
    assert cli.main(["adjust", "--input", inp, "--procedure", "ep-bh",
                     "--alpha", "0.05", "--out", str(out)]) == 0
    rows = read_rows(out)
    p = np.array([0.001, 0.02, 0.3, 0.9, 0.04])
    e = np.array([20.0, 5.0, 1.5, 1.0, 0.5])
    expected = ep_bh(p, e, 0.05)
    got_rejected = {i for i, row in enumerate(rows) if row["rejected"] == "1"}
    assert got_rejected == set(expected.rejected)
    got_adjusted = np.array([float(row["adjusted"]) for row in rows])
    np.testing.assert_array_equal(got_adjusted, expected.adjusted)
    summary = json.loads((tmp_path / "rej.json").read_text())
    assert summary == {"procedure": "ep-bh", "alpha": 0.05,
                       "k_star": expected.threshold_index,
                       "n_rejected": len(expected.rejected)}


def test_adjust_missing_e_defaults_to_one(tmp_path):
    inp = write(tmp_path / "hyp.csv", HYP)
    out = tmp_path / "rej.csv"
    cli.main(["adjust", "--input", inp, "--procedure", "ep-bh", "--out", str(out)])
    rows = read_rows(out)
    assert rows[3]["e"] == "1.0"  # g4's empty cell


def test_adjust_all_empty_e_equals_p_bh(tmp_path):
    """With every e cell empty, ep-BH degenerates to p-BH: byte-identical CSV."""
    body = "id,p,e\n" + "".join(f"g{i},{p},\n" for i, p in enumerate(
        [0.001, 0.008, 0.02, 0.3, 0.6, 0.9]))
    inp = write(tmp_path / "noe.csv", body)
    out_ep = tmp_path / "ep.csv"
    out_p = tmp_path / "p.csv"
    cli.main(["adjust", "--input", inp, "--procedure", "ep-bh", "--alpha", "0.1",
              "--out", str(out_ep)])
    cli.main(["adjust", "--input", inp, "--procedure", "p-bh", "--alpha", "0.1",
              "--out", str(out_p)])
    assert out_ep.read_bytes() == out_p.read_bytes()


def test_adjust_ep_storey_matches_library(tmp_path):
    body = "id,p,e\ng1,0.01,2\ng2,0.02,1\ng3,0.6,1\ng4,0.7,1\ng5,0.8,1\n"
    inp = write(tmp_path / "hyp.csv", body)
    out = tmp_path / "o.csv"
    cli.main(["adjust", "--input", inp, "--procedure", "ep-storey",
              "--alpha", "0.25", "--tau", "0.5", "--out", str(out)])
    rows = read_rows(out)
    expected = ep_storey([0.01, 0.02, 0.6, 0.7, 0.8], [2.0, 1.0, 1.0, 1.0, 1.0],
                         0.25, tau=0.5)
    got = {i for i, row in enumerate(rows) if row["rejected"] == "1"}
    assert got == set(expected.rejected)


def test_adjust_lambda_shift_applied_before_procedure(tmp_path):
    body = "id,p,e\ng1,0.01,0\ng2,0.5,1\n"
    inp = write(tmp_path / "hyp.csv", body)
    out = tmp_path / "o.csv"
    cli.main(["adjust", "--input", inp, "--procedure", "ep-bh", "--alpha", "0.1",
              "--lambda-shift", "0.5", "--out", str(out)])
    rows = read_rows(out)
    # e = 0 becomes 0.5; adjusted quotient 0.01/0.5 = 0.02
    assert float(rows[0]["e"]) == 0.5
    assert float(rows[0]["adjusted"]) == pytest.approx(0.02)


def test_adjust_missing_p_for_p_procedure_exits_2(tmp_path, capsys):
    body = "id,p,e\ng1,0.01,2\ng2,,5\n"
    inp = write(tmp_path / "hyp.csv", body)
    code = cli.main(["adjust", "--input", inp, "--procedure", "p-bh",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("procedure", ["e-bh", "adaptive-e-bh"])
def test_adjust_e_only_procedure_keeps_empty_p_cells(tmp_path, procedure):
    """A procedure on e alone runs with p cells empty and writes them back empty."""
    inp = write(tmp_path / "h.csv", "id,p,e\ng1,0.01,40\ng2,,30\ng3,0.5,\ng4,,0.5\n")
    out = tmp_path / "o.csv"
    assert cli.main(["adjust", "--input", inp, "--procedure", procedure, "--alpha", "0.1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [row["p"] for row in rows] == ["0.01", "", "0.5", ""]
    assert [row["e"] for row in rows] == ["40.0", "30.0", "1.0", "0.5"]
    assert [row["rejected"] for row in rows] == ["1", "1", "0", "0"]


def test_adjust_malformed_value_exits_2_with_line(tmp_path, capsys):
    body = "id,p,e\ng1,0.01,2\ng2,1.7,5\n"
    inp = write(tmp_path / "hyp.csv", body)
    code = cli.main(["adjust", "--input", inp, "--procedure", "p-bh",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_adjust_unparsable_number_exits_2(tmp_path, capsys):
    body = "id,p,e\ng1,zero,2\n"
    inp = write(tmp_path / "hyp.csv", body)
    code = cli.main(["adjust", "--input", inp, "--procedure", "p-bh",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_adjust_bad_header_exits_2(tmp_path, capsys):
    inp = write(tmp_path / "hyp.csv", "gene,pval,eval\ng1,0.1,2\n")
    code = cli.main(["adjust", "--input", inp, "--procedure", "p-bh",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_adjust_usage_errors_exit_3(tmp_path, capsys):
    assert cli.main(["adjust", "--procedure", "p-bh", "--out", "x.csv"]) == 3
    assert cli.main(["adjust", "--input", "x", "--procedure", "not-a-proc",
                     "--out", "y.csv"]) == 3
    capsys.readouterr()


def test_adjust_bad_alpha_exits_3(tmp_path, capsys):
    """Procedure flags are checked before the input is read, so a bad flag
    is a usage error even when the input is malformed too."""
    inp = write(tmp_path / "hyp.csv", "gene,pval,eval\ng1,0.1,2\n")
    code = cli.main(["adjust", "--input", inp, "--procedure", "p-bh",
                     "--alpha", "1.5", "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert capsys.readouterr().err == "error: alpha must lie strictly in (0, 1), got 1.5\n"


def test_adjust_infinite_evalue_round_trips(tmp_path):
    body = "id,p,e\ng1,0.5,inf\ng2,0.9,1\n"
    inp = write(tmp_path / "hyp.csv", body)
    out = tmp_path / "o.csv"
    cli.main(["adjust", "--input", inp, "--procedure", "ep-bh", "--alpha", "0.1",
              "--out", str(out)])
    rows = read_rows(out)
    assert rows[0]["e"] == "inf"
    assert rows[0]["rejected"] == "1"  # p/inf = 0


def test_adjust_accepts_utf8_bom(tmp_path):
    """A spreadsheet export's byte-order mark before the header is not data."""
    plain = write(tmp_path / "plain.csv", HYP)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + HYP.encode())
    for inp, out in ((plain, "plain-out.csv"), (str(bom), "bom-out.csv")):
        assert cli.main(["adjust", "--input", inp, "--procedure", "ep-bh",
                         "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "bom-out.csv").read_bytes() == (tmp_path / "plain-out.csv").read_bytes()


def test_adjust_duplicate_id_exits_2_with_line(tmp_path, capsys):
    body = "id,p,e\ng1,0.01,2\ng2,0.2,1\ng1,0.03,4\n"
    inp = write(tmp_path / "hyp.csv", body)
    code = cli.main(["adjust", "--input", inp, "--procedure", "ep-bh",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "'g1'" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("body, line, message", [
    # a quoted id spanning lines 2-3: lines are physical lines, not rows
    ('"g\n1",0.1,2\ng2,1.7,5\n', 4, "p-value must lie in [0, 1], got 1.7"),
    ("g1,0.1,2\n\ng2,1.7,5\n", 4, "p-value must lie in [0, 1], got 1.7"),
    # the earliest offending line wins, whichever column it is in
    ("g1,0.1,-1\ng2,1.7,5\n", 2, "e-value must lie in [0, +inf], got -1.0"),
], ids=["quoted-multiline-id", "blank-line", "earliest-column"])
def test_adjust_error_names_physical_line(tmp_path, capsys, body, line, message):
    inp = write(tmp_path / "hyp.csv", "id,p,e\n" + body)
    code = cli.main(["adjust", "--input", inp, "--procedure", "p-bh",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


@pytest.mark.parametrize("command", ["adjust", "combine", "moderate", "simulate"])
def test_non_utf8_input_exits_2_naming_line(tmp_path, capsys, command):
    if command == "moderate":
        body = b"id,beta_hat,s_sq,v,nu\ng1,1,1,0.1,38\ng\xff2,1,1,0.1,38\n"
    elif command == "simulate":
        body = b'{"procedures": ["p-bh"],\n "scenarios": [{"kind": "ttest\xff"}]}'
    else:
        body = b"id,p,e\ng1,0.01,2\ng\xff2,0.2,1\n"
    inp = tmp_path / "in"
    inp.write_bytes(body)
    flags = {
        "adjust": ["--input", str(inp), "--procedure", "p-bh"],
        "combine": ["--input", str(inp), "--mode", "quotient"],
        "moderate": ["--input", str(inp)],
        "simulate": ["--config", str(inp), "--reps", "2"],
    }[command]
    code = cli.main([command, *flags, "--out", str(tmp_path / "o.csv")])
    line = 2 if command == "simulate" else 3
    assert code == 2
    assert capsys.readouterr().err == f"error: line {line}: byte 0xff is not valid UTF-8\n"


def out_argv(command, inp, out):
    """argv running command on inp, a valid input unless missing, into out."""
    source = {"simulate": "--config"}.get(command, "--input")
    flags = {
        "adjust": ["--procedure", "p-bh"],
        "combine": ["--mode", "quotient"],
        "moderate": [],
        "simulate": ["--reps", "2", "--parallelism", "2"],
    }[command]
    return [command, source, str(inp), *flags, "--out", str(out)]


@pytest.mark.parametrize("command", ["adjust", "combine", "moderate", "simulate"])
def test_out_in_a_missing_directory_exits_2_before_reading(tmp_path, capsys, command):
    """The --out directory is checked before the input is read (here the
    input does not exist either) and before any worker forks."""
    out = tmp_path / "nodir" / "o.csv"
    assert cli.main(out_argv(command, tmp_path / "missing", out)) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: no directory {out.parent}\n"
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("command, blocked", [
    ("adjust", "out.csv"), ("combine", "out.csv"), ("moderate", "out.csv"), ("simulate", "out.csv"),
    ("adjust", "out.json"), ("moderate", "out.json"), ("simulate", "out.manifest.json"),
])
def test_output_that_cannot_be_opened_exits_2_naming_it(tmp_path, capsys, command, blocked):
    """An output file that open refuses (here a directory stands in its
    place) is named with the system's reason, not a traceback."""
    text = {
        "moderate": "id,beta_hat,s_sq,v,nu\ng1,1,1,0.1,38\ng2,0.5,2,0.1,38\n",
        "simulate": config_text(),
    }.get(command, HYP)
    (tmp_path / blocked).mkdir()
    assert cli.main(out_argv(command, write(tmp_path / "in", text), tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / blocked}: [Errno ")
    # refused before the work, so neither output is left half written
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["in", blocked])


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("command, text", [
    ("adjust", HYP),
    ("combine", HYP),
    ("combine", "id,p,e\n" + "".join(f"g{i},0.5,1\n" for i in range(5000))),
    ("moderate", "id,beta_hat,s_sq,v,nu\ng1,1,1,0.1,38\ng2,0.5,2,0.1,38\n"),
    ("simulate", None),
], ids=["adjust", "combine-at-close", "combine-at-a-write", "moderate", "simulate"])
def test_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, command, text):
    """/dev/full opens but refuses every byte: a small output fails as
    the file closes, a large one at a write, and either is named with the
    system's reason, not a traceback."""
    assert cli.main(out_argv(command, write(tmp_path / "in", text or config_text()), "/dev/full")) == 2
    assert capsys.readouterr().err == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


# /proc/self/mem opens, but reading it from its start fails: nothing is mapped there
UNREADABLE = "/proc/self/mem"
needs_unreadable = pytest.mark.skipif(not Path(UNREADABLE).exists(), reason="no Linux /proc/self/mem")


@needs_unreadable
@pytest.mark.parametrize("command", ["adjust", "simulate"])
def test_input_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, command):
    assert cli.main(out_argv(command, UNREADABLE, tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err == f"error: cannot read {UNREADABLE}: [Errno 5] Input/output error\n"
    assert list(tmp_path.iterdir()) == []


@needs_unreadable
def test_error_path_rereads_name_a_read_failure(monkeypatch):
    """The re-reads that find an error's line, or a byte that is not
    UTF-8, map a read failure as the first read does."""
    refusal = f"cannot read {UNREADABLE}: [Errno 5] Input/output error"
    with pytest.raises(cli.CliInputError) as raised:
        table._data_line(UNREADABLE, 0)
    assert str(raised.value) == refusal

    def refuse(handle, columns):
        raise cli.CliInputError("line 1: refused without reading")

    monkeypatch.setattr(table, "_check_header", refuse)
    with pytest.raises(cli.CliInputError) as raised:
        table._load_table(UNREADABLE, table._HYPOTHESES)
    assert str(raised.value) == refusal


def open_refusal(path) -> str:
    """What open says when asked to write path."""
    with pytest.raises(OSError) as raised:
        open(path, "w")
    return str(raised.value)


@pytest.mark.parametrize("command, out, blocked", [
    ("simulate", "outdir", "outdir"), ("adjust", "o7.csv", "o7.json"), ("moderate", "o7", "o7.json"),
    ("simulate", "o7.csv", "o7.manifest.json"), ("combine", "outdir", "outdir"),
])
def test_out_or_its_summary_being_a_directory_exits_2_before_reading(tmp_path, capsys, command, out, blocked):
    """--out, or the summary path beside it, being a directory is refused
    with open's own words before the input is read (here it does not
    exist) or a campaign runs, so nothing is written."""
    (tmp_path / blocked).mkdir()
    assert cli.main(out_argv(command, tmp_path / "missing", tmp_path / out)) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / blocked}: {open_refusal(tmp_path / blocked)}\n"
    assert [path.name for path in tmp_path.iterdir()] == [blocked]


def test_combine_writes_beside_a_directory_named_like_a_summary(tmp_path):
    """combine writes no summary, so a directory at <stem>.json is no obstacle."""
    (tmp_path / "o.json").mkdir()
    assert cli.main(out_argv("combine", write(tmp_path / "in", HYP), tmp_path / "o.csv")) == 0
    assert len(read_rows(tmp_path / "o.csv")) == 5


@pytest.mark.parametrize("rows", [1, 2000], ids=["first-chunk", "past-first-chunk"])
def test_non_utf8_byte_is_named_before_a_wrong_header(tmp_path, capsys, rows):
    """The text reader decodes ahead in chunks; the order of the two errors
    does not depend on whether the byte falls in the first one."""
    inp = tmp_path / "in.csv"
    inp.write_bytes(b"idx,p,e\n" + b"g1,0.01,2\n" * rows + b"g\xff2,0.2,1\n")
    code = cli.main(["adjust", "--input", str(inp), "--procedure", "p-bh", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: line {rows + 2}: byte 0xff is not valid UTF-8\n"


# quoted cells that span rows, break lines or carry the separators
SPECIAL_IDS = ["cr\rid", "lf\nid", "crlf\r\nid", "comma,id", 'quote"id', "plain"]


def quoted_cell(text):
    return '"' + text.replace('"', '""') + '"'


@pytest.mark.parametrize("command", ["adjust", "combine", "moderate"])
def test_ids_with_separators_read_back_intact(tmp_path, command):
    if command == "moderate":
        header, values = "id,beta_hat,s_sq,v,nu", [f"{0.1 * i},1.0,0.1,38" for i in range(len(SPECIAL_IDS))]
        flags = []
    else:
        header, values = "id,p,e", [f"0.0{i + 1},2" for i in range(len(SPECIAL_IDS))]
        flags = ["--procedure", "ep-bh"] if command == "adjust" else ["--mode", "quotient"]
    body = "".join(f"{quoted_cell(i)},{v}\n" for i, v in zip(SPECIAL_IDS, values))
    inp = write(tmp_path / "in.csv", header + "\n" + body)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--input", inp, *flags, "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert [row[0] for row in rows[1:]] == SPECIAL_IDS
    assert {len(row) for row in rows} == {len(rows[0])}


@pytest.mark.parametrize("command", ["adjust", "moderate"])
@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
def test_oversized_cell_exits_2_naming_line(tmp_path, capsys, command, quoted):
    """A cell over csv's field size limit is refused on its line, whichever
    path reads it: cut at commas, or by csv.reader after a quote."""
    cell = "x" * 200_000
    if quoted:
        cell = quoted_cell(cell)
    if command == "moderate":
        body = f"id,beta_hat,s_sq,v,nu\ng1,1,1,0.1,38\n{cell},1,1,0.1,38\n"
        flags = []
    else:
        body = f"id,p,e\ng1,0.01,2\n{cell},0.2,1\n"
        flags = ["--procedure", "ep-bh"]
    inp = write(tmp_path / "in.csv", body)
    code = cli.main([command, "--input", inp, *flags, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == f"error: line 3: field larger than field limit ({limit})\n"


PLAIN_ROWS = "".join(f"g{i},0.0{i % 9 + 1},2\n" for i in range(20))


def adjust_ids(tmp_path, monkeypatch, body, read_chars):
    """The ids `adjust` writes for an id,p,e body read read_chars at a time."""
    monkeypatch.setattr(table, "_READ_CHARS", read_chars)
    inp = write(tmp_path / "in.csv", "id,p,e\n" + body)
    out = tmp_path / "out.csv"
    assert cli.main(["adjust", "--input", inp, "--procedure", "ep-bh", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        return [row[0] for row in csv.reader(handle)][1:]


def test_quote_after_the_first_block_reads_back_intact(tmp_path, monkeypatch):
    body = PLAIN_ROWS + "".join(f"{quoted_cell(i)},0.5,1\n" for i in SPECIAL_IDS)
    ids = adjust_ids(tmp_path, monkeypatch, body, 64)
    assert ids == [f"g{i}" for i in range(20)] + SPECIAL_IDS


def test_quoted_line_feed_across_a_block_edge_reads_back_intact(tmp_path, monkeypatch):
    body = PLAIN_ROWS + '"split\nid",0.5,1\n' + PLAIN_ROWS.replace("g", "h")
    # the first block ends one character past the line feed inside the quotes
    ids = adjust_ids(tmp_path, monkeypatch, body, body.index("split\n") + len("split\n") + 1)
    assert ids == [f"g{i}" for i in range(20)] + ["split\nid"] + [f"h{i}" for i in range(20)]


def test_field_count_after_a_quote_names_physical_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(table, "_READ_CHARS", 64)
    # rows on lines 2-21, the quoted id on lines 22-23, the short row on 25
    body = PLAIN_ROWS + '"split\nid",0.5,1\nh0,0.5,1\nh1,0.5\n'
    inp = write(tmp_path / "in.csv", "id,p,e\n" + body)
    code = cli.main(["adjust", "--input", inp, "--procedure", "ep-bh", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: line 25: expected 3 fields, got 2\n"


@pytest.mark.parametrize("row", ["g,0.5\n", quoted_cell("x" * 200_000) + ",0.5,1\n"], ids=["short", "oversized"])
def test_non_utf8_byte_is_named_before_a_row_error_found_first(tmp_path, monkeypatch, capsys, row):
    """The reader stops at a short row or an oversized cell on line 22,
    before it has decoded a byte tens of KiB further on that is not UTF-8,
    and still names the byte."""
    monkeypatch.setattr(table, "_READ_CHARS", 64)
    filler = (PLAIN_ROWS * 100).replace("g", "h")
    inp = tmp_path / "in.csv"
    inp.write_bytes(f"id,p,e\n{PLAIN_ROWS}{row}{filler}".encode() + b"g\xff,0.2,1\n")
    code = cli.main(["adjust", "--input", str(inp), "--procedure", "p-bh", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2023: byte 0xff is not valid UTF-8\n"


# Errors placed in different blocks of one file: which one is named. Each
# case is (command, {row: replaced cells or line}, message); rows count from
# 0, on line row + 2, and "@" in a line becomes the byte 0xff.
BLOCK = 5
ADJUST_ROW, MODERATE_ROW = "g{:03d},0.5,2", "g{:03d},0.5,1,0.1,38"
ACROSS_BLOCKS = {
    "count-in-block-3-beats-value-in-block-1": (
        "adjust", {2: {1: "bad"}, 12: "g012,0.5"}, "line 14: expected 3 fields, got 2"
    ),
    "earlier-row-wins-in-a-block": (
        "adjust", {6: {2: "bad"}, 8: {1: "bad"}}, "line 8: cannot parse e='bad' as a number"
    ),
    "p-wins-on-one-row": (
        "adjust", {7: {1: "1.5", 2: "x"}}, "line 9: p-value must lie in [0, 1], got 1.5"
    ),
    "value-in-block-4-beats-duplicate-in-block-1": (
        "adjust", {3: {0: "g001"}, 17: {1: "bad"}}, "line 19: cannot parse p='bad' as a number"
    ),
    "byte-in-last-block-beats-value-in-block-1": (
        "adjust", {1: {1: "bad"}, 19: {0: "g@19"}}, "line 21: byte 0xff is not valid UTF-8"
    ),
    "value-in-a-quoted-block-after-a-clean-one": (
        "adjust", {6: {0: '"g006"'}, 8: {2: "-1"}}, "line 10: e-value must lie in [0, +inf], got -1.0"
    ),
    "moderate-count-in-block-3-beats-value-in-block-1": (
        "moderate", {1: {4: "0"}, 11: "g011,0.5,1,0.1"}, "line 13: expected 5 fields, got 4"
    ),
    "moderate-earlier-row-wins-in-a-block": (
        "moderate", {5: {4: "inf"}, 7: {1: "nan"}}, "line 7: nu must be positive and finite"
    ),
    "moderate-first-column-wins-on-one-row": (
        "moderate", {6: {1: "inf", 2: "x", 3: "0"}}, "line 8: beta_hat must be finite"
    ),
    "moderate-value-in-block-4-beats-duplicate-in-block-1": (
        "moderate", {2: {0: "g000"}, 16: {3: ""}}, "line 18: cannot parse v='' as a number"
    ),
    "moderate-byte-in-last-block-beats-value-in-block-1": (
        "moderate", {0: {2: "x"}, 18: {0: "g@18"}}, "line 20: byte 0xff is not valid UTF-8"
    ),
}


@pytest.mark.parametrize("reader", ["split", "csv"])
@pytest.mark.parametrize("case", sorted(ACROSS_BLOCKS))
def test_error_order_across_blocks(tmp_path, monkeypatch, capsys, case, reader):
    """Four blocks of BLOCK rows each: the split path cuts them by
    characters, and csv.reader, which a quoted first id hands the whole
    file to, by _BLOCK_ROWS. On both, the error named is the one the
    documented order puts first, wherever the others are."""
    command, changes, message = ACROSS_BLOCKS[case]
    template = ADJUST_ROW if command == "adjust" else MODERATE_ROW
    lines = []
    for row in range(4 * BLOCK):
        cells = template.format(row).split(",")
        if reader == "csv" and row == 0:
            cells[0] = quoted_cell(cells[0])
        change = changes.get(row, {})
        if isinstance(change, dict):
            change = ",".join(change.get(i, cell) for i, cell in enumerate(cells))
        lines.append(change)
    width = max(map(len, lines)) + 1
    header = "id,p,e" if command == "adjust" else "id,beta_hat,s_sq,v,nu"
    # lines padded to one width, so that each read of BLOCK widths ends a block
    body = "".join(line.ljust(width - 1) + "\n" for line in lines)
    inp = tmp_path / "in.csv"
    inp.write_bytes((header + "\n" + body).encode().replace(b"@", b"\xff"))
    monkeypatch.setattr(table, "_READ_CHARS", BLOCK * width)
    monkeypatch.setattr(table, "_BLOCK_ROWS", BLOCK)
    flags = ["--procedure", "ep-bh"] if command == "adjust" else []
    code = cli.main([command, "--input", str(inp), *flags, "--out", str(tmp_path / "o.csv")])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


# the header and one row, 15 bytes: line 3 starts one byte before the
# boundary of 16-byte reads
TWO_LINES = b"id,p,e\na,0.1,1\n"
ACROSS_READS = {
    "bad-byte-before-boundary": (TWO_LINES + b"\xff,0.1,1\n", 3, 0xFF),
    "bad-byte-at-boundary": (TWO_LINES + b"b\xff,0.1,1\n", 3, 0xFF),
    "bad-byte-after-boundary": (TWO_LINES + b"bb\xff,0.1,1\n", 3, 0xFF),
    "2-byte-char-across": (TWO_LINES + "é".encode() + b",0.1,1\nc\xfe,0.1,1\n", 4, 0xFE),
    "3-byte-char-across": (TWO_LINES + "€".encode() + b",0.1,1\nc\xfe,0.1,1\n", 4, 0xFE),
    "crlf-across": (b"id,p,e\r\na,0.1,1\r\nb\xff,0.1,1\r\n", 3, 0xFF),
    "lone-cr-before-boundary": (b"id,p,e\r\na,0.1,1\rb\xff,0.1,1\r\n", 3, 0xFF),
    "bom": (b"\xef\xbb\xbf" + TWO_LINES + b"b\xff,0.1,1\n", 3, 0xFF),
    "truncated-at-eof": (TWO_LINES + b"b,0.1,1\nc,0.1,1" + "€".encode()[:2], 4, 0xE2),
}


def whole_file_error(data: bytes):
    """The undecodable-byte message from one decode of all of data, or None."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"?").splitlines())
        return f"line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
    return None


@pytest.mark.parametrize("case", sorted(ACROSS_READS))
def test_non_utf8_byte_is_named_wherever_the_reads_split_the_file(tmp_path, monkeypatch, capsys, case):
    """The loader reads 16 characters at a time, and the byte's line is the
    one a decode of the whole file names, whatever straddles a read boundary."""
    data, line, byte = ACROSS_READS[case]
    assert whole_file_error(data) == f"line {line}: byte 0x{byte:02x} is not valid UTF-8"
    monkeypatch.setattr(table, "_READ_CHARS", 16)
    inp = tmp_path / "in.csv"
    inp.write_bytes(data)
    code = cli.main(["adjust", "--input", str(inp), "--procedure", "p-bh", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {whole_file_error(data)}\n"


def test_non_utf8_byte_search_agrees_with_a_whole_file_decode(tmp_path):
    """Seeded random byte strings, of line breaks, ASCII, multi-byte
    characters, a BOM, NUL and broken sequences, among them those a lenient
    decoder takes: an encoded surrogate, an overlong form and a truncated
    4-byte character. Every tenth string follows 10 to 60 KB of valid
    pieces, so that lines and characters straddle the text reader's 8 KiB
    chunks."""
    rng = np.random.default_rng(22)
    valid = [b"a", b",", b"\n", b"\r", b"\r\n", "é".encode(), "€".encode(), "𝄞".encode(), b"\xef\xbb\xbf", b"\0"]
    pieces = valid + [b"\xff", b"\xe2\x82", b"\x80", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf0\x9f\x98"]
    weights = np.array([30, 5, 8, 5, 5, 3, 3, 2, 1, 1] + [0.3] * 6)
    valid_weights = weights[: len(valid)] / weights[: len(valid)].sum()
    path = tmp_path / "in.csv"
    for case in range(500):
        picks = rng.choice(len(valid), size=rng.integers(7_500, 45_000), p=valid_weights) if case % 10 == 0 else []
        data = b"".join(valid[i] for i in picks)
        data += b"".join(pieces[i] for i in rng.choice(len(pieces), size=rng.integers(0, 60), p=weights / weights.sum()))
        path.write_bytes(data)
        expected = whole_file_error(data)
        if expected is None:
            assert table._fail_undecodable(str(path)) is None
        else:
            with pytest.raises(cli.CliInputError) as raised:
                table._fail_undecodable(str(path))
            assert str(raised.value) == expected


def test_loader_frees_each_block_before_the_next_read(tmp_path):
    """On a seeded 60k-row id,p,e file, read in 1 MiB blocks, the loader's
    traced heap peak over what it keeps (the ids and the float columns)
    stays below 9.5 MB: one block's lines and cells are live at a time. A
    reader that held each block's cells while it read and cut the next
    peaked over 11 MB."""
    rng = np.random.default_rng(30)
    rows = 60_000
    p, e = rng.random(rows).tolist(), rng.exponential(size=rows).tolist()
    inp = tmp_path / "in.csv"
    inp.write_text("id,p,e\n" + "".join(f"h{i:07d},{p[i]!r},{e[i]!r}\n" for i in range(rows)), encoding="utf-8")
    assert table._READ_CHARS == 1 << 20 and inp.stat().st_size > 2 * table._READ_CHARS
    tracemalloc.start()
    try:
        loaded = table._load_table(str(inp), table._HYPOTHESES)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(loaded[0]), loaded[1].tolist(), loaded[2].tolist()) == (rows, p, e)
    assert peak - kept < 9.5e6


def test_error_line_lookup_stops_at_its_row(tmp_path):
    """Naming the line of a row-0 error in a 200k-row file reads the file
    up to that row only: the traced heap peak stays below 1 MB. A lookup
    that listed the line of every data row first peaked near 7 MB."""
    rows = 200_000
    inp = tmp_path / "in.csv"
    inp.write_text("id,p,e\n" + "".join(f"h{i},x,x\n" for i in range(rows)), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(cli.CliInputError) as raised:
            table._fail(str(inp), (0, "cannot parse p='x' as a number"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(raised.value) == "line 2: cannot parse p='x' as a number"
    assert peak < 1e6


# ---------------------------------------------------------------- combine


def test_combine_quotient(tmp_path):
    inp = write(tmp_path / "h.csv", "id,p,e\na,0.04,2\n")
    out = tmp_path / "c.csv"
    assert cli.main(["combine", "--input", inp, "--mode", "quotient",
                     "--out", str(out)]) == 0
    assert read_rows(out)[0]["combined"] == "0.02"


def test_combine_bonferroni(tmp_path):
    inp = write(tmp_path / "h.csv", "id,p,e\na,0.03,100\n")
    out = tmp_path / "c.csv"
    cli.main(["combine", "--input", inp, "--mode", "bonferroni", "--out", str(out)])
    assert float(read_rows(out)[0]["combined"]) == pytest.approx(0.02)


def test_combine_product_needs_calibrator(tmp_path, capsys):
    inp = write(tmp_path / "h.csv", "id,p,e\na,0.25,2\n")
    out = tmp_path / "c.csv"
    assert cli.main(["combine", "--input", inp, "--mode", "product",
                     "--out", str(out)]) == 3
    capsys.readouterr()
    assert cli.main(["combine", "--input", inp, "--mode", "product",
                     "--calibrator", "sqrt", "--out", str(out)]) == 0
    # h(0.25) = 1, so the product equals the e-value
    assert float(read_rows(out)[0]["combined"]) == pytest.approx(2.0)


def test_combine_mean_weight(tmp_path, capsys):
    inp = write(tmp_path / "h.csv", "id,p,e\na,0.25,3\n")
    out = tmp_path / "c.csv"
    cli.main(["combine", "--input", inp, "--mode", "mean", "--calibrator", "sqrt",
              "--out", str(out)])
    assert float(read_rows(out)[0]["combined"]) == pytest.approx(2.0)
    code = cli.main(["combine", "--input", inp, "--mode", "mean", "--calibrator",
                     "sqrt", "--mean-weight", "1.0", "--out", str(out)])
    assert code == 3
    capsys.readouterr()


def test_combine_requires_p(tmp_path, capsys):
    inp = write(tmp_path / "h.csv", "id,p,e\na,,2\n")
    code = cli.main(["combine", "--input", inp, "--mode", "quotient",
                     "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


BAD_FLAGS = {
    "lambda-above-one": (
        ["adjust", "--procedure", "ep-bh", "--lambda-shift", "1.5"], "shift lambda must lie in [0, 1], got 1.5"
    ),
    "lambda-below-zero": (
        ["adjust", "--procedure", "ep-bh", "--lambda-shift", "-0.1"], "shift lambda must lie in [0, 1], got -0.1"
    ),
    "lambda-nan": (
        ["adjust", "--procedure", "ep-bh", "--lambda-shift", "nan"], "shift lambda must lie in [0, 1], got nan"
    ),
    "mean-weight-zero": (
        ["combine", "--mode", "mean", "--calibrator", "sqrt", "--mean-weight", "0.0"],
        "mean-combiner weight must lie strictly in (0, 1), got 0.0",
    ),
    "mean-weight-one": (
        ["combine", "--mode", "mean", "--calibrator", "sqrt", "--mean-weight", "1.0"],
        "mean-combiner weight must lie strictly in (0, 1), got 1.0",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
@pytest.mark.parametrize("input_kind", ["missing", "malformed"])
def test_bad_flag_exits_3_before_the_input_is_read(tmp_path, capsys, case, input_kind):
    """--lambda-shift and --mean-weight are usage errors even when the input
    cannot be read, and a refused flag leaves no output behind."""
    argv, message = BAD_FLAGS[case]
    inp = tmp_path / "in.csv"
    if input_kind == "malformed":
        inp.write_text("id,p,e\ng1,oops,2\n")
    out = tmp_path / "o.csv"
    assert cli.main([*argv, "--input", str(inp), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == ([inp] if input_kind == "malformed" else [])


P_COMMANDS = {"adjust": ["adjust", "--procedure", "p-bh"], "combine": ["combine", "--mode", "quotient"]}


@pytest.mark.parametrize("command", sorted(P_COMMANDS))
@pytest.mark.parametrize("body, message", [
    ("id,p,e\na,,2\nb,0.1,1\na,0.2,1\n", "line 4: duplicate id 'a' (first seen on line 2)"),
    ("id,p,e\na,,2\nb,0.1,x\n", "line 3: cannot parse e='x' as a number"),
], ids=["duplicate-id", "unparsable-e"])
def test_empty_p_is_named_after_the_loaders_own_errors(tmp_path, capsys, command, body, message):
    """A command that needs p names an empty p cell only after a repeated
    id or a cell that cannot be read, wherever those are."""
    inp = write(tmp_path / "h.csv", body)
    assert cli.main([*P_COMMANDS[command], "--input", inp, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------- simulate


def config_text(**overrides):
    config = {
        "alpha": 0.1,
        "scenarios": [{"kind": "ttest", "n_hypotheses": 150}],
        "procedures": ["p-bh", "ep-bh"],
    }
    config.update(overrides)
    return json.dumps(config)


def test_simulate_deterministic_and_manifest(tmp_path):
    cfg = write(tmp_path / "cfg.json", config_text())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert cli.main(["simulate", "--config", cfg, "--reps", "10",
                         "--seed", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["master_seed"] == 3
    assert manifest["replicates"] == 10
    assert manifest["scenarios"][0]["kind"] == "ttest"
    assert [p["name"] for p in manifest["procedures"]] == ["p-bh", "ep-bh"]
    assert "parallelism" not in manifest
    rows = read_rows(out1)
    assert [row["procedure"] for row in rows] == ["p-bh", "ep-bh"]
    assert rows[0]["scenario"] == "ttest-0"
    assert rows[0]["replicates"] == "10"


def test_simulate_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", json.dumps({
        "alpha": 0.1, "scenarios": [{"kind": "ttest"}], "procedures": ["p-bh"],
        "replicates": 5,
    }))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "replicates" in capsys.readouterr().err


def test_simulate_unknown_scenario_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", config_text(
        scenarios=[{"kind": "ttest", "effect_size": 2.0}]))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "effect_size" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n_per_group", "ssq_df"])
def test_simulate_ttest_design_keys_are_unknown(tmp_path, capsys, key):
    """The t-test design is fixed at 5 per group and 9 df; neither is a key."""
    cfg = write(tmp_path / "cfg.json", config_text(scenarios=[{"kind": "ttest", key: 5}]))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: scenario config: unknown scenario key {key!r} for kind 'ttest'\n"


@pytest.mark.parametrize("kind", [["ttest"], 5, None, "nope"], ids=["list", "int", "null", "unknown"])
def test_simulate_bad_scenario_kind_exits_2(tmp_path, capsys, kind):
    cfg = write(tmp_path / "cfg.json", config_text(scenarios=[{"kind": kind}]))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'kind'" in err and repr(kind) in err


@pytest.mark.parametrize("value", [True, "100"])
def test_simulate_mistyped_scenario_field_exits_2(tmp_path, capsys, value):
    cfg = write(tmp_path / "cfg.json", config_text(
        scenarios=[{"kind": "ttest", "n_hypotheses": value}]))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'n_hypotheses'" in err and "integer" in err


@pytest.mark.parametrize("overrides, key", [
    ({"procedures": [{"name": "p-bh", "alpha": "0.1"}]}, "'alpha'"),
    ({"alpha": "0.1"}, "'alpha'"),
    ({"procedures": [{"name": "pe-bh", "calibrator": 5}]}, "'calibrator'"),
], ids=["procedure-alpha", "default-alpha", "calibrator"])
def test_simulate_mistyped_procedure_field_exits_2(tmp_path, capsys, overrides, key):
    cfg = write(tmp_path / "cfg.json", config_text(**overrides))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_simulate_non_finite_number_exits_2(tmp_path, capsys, value):
    """json reads NaN and Infinity; no scenario field accepts them."""
    cfg = write(tmp_path / "cfg.json", config_text(
        scenarios=[{"kind": "ttest", "n_hypotheses": 100, "effect": value}]))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'effect'" in err and "finite" in err


@pytest.mark.parametrize("overrides, message", [
    ({"procedures": 5}, "'procedures' must be a list of names or objects"),
    ({"procedures": "p-bh"}, "'procedures' must be a list of names or objects"),
    ({"procedures": [5]}, "'procedures' must be a list of names or objects"),
    ({"scenarios": 5}, "'scenarios' must be a list of objects"),
    ({"scenarios": "ttest"}, "'scenarios' must be a list of objects"),
    ({"scenarios": [5]}, "'scenarios' must be a list of objects"),
], ids=["procedures-int", "procedures-str", "procedures-int-item",
        "scenarios-int", "scenarios-str", "scenarios-int-item"])
def test_simulate_config_list_type_exits_2(tmp_path, capsys, overrides, message):
    cfg = write(tmp_path / "cfg.json", config_text(**overrides))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: config key {message}\n"


def test_simulate_adversarial_with_p_procedure_exits_2(tmp_path, capsys):
    """The adversarial scenario makes no p-values; refuse before any replicate."""
    cfg = write(tmp_path / "cfg.json", config_text(
        scenarios=[{"kind": "adversarial"}], procedures=["e-bh", "p-bh"]))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "adversarial-0" in err and "p-bh" in err
    assert not (tmp_path / "o.csv").exists()


def test_simulate_unknown_procedure_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", config_text(procedures=["bh-2000"]))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "bh-2000" in capsys.readouterr().err


@pytest.mark.parametrize("procedures, name", [
    (["p-bh", "p-bh"], "p-bh"),
    ([{"name": "adaptive-e-bh", "merging": "mean"}, {"name": "adaptive-e-bh", "merging": "max"}], "adaptive-e-bh"),
], ids=["same-entry", "different-merging"])
def test_simulate_repeated_procedure_exits_2(tmp_path, capsys, procedures, name):
    """Results are keyed by procedure name, so a name may appear once."""
    cfg = write(tmp_path / "cfg.json", config_text(procedures=procedures))
    code = cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert f"procedure {name!r} appears twice" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_simulate_single_gene_microarray_needs_refit_off(tmp_path, capsys):
    """Refitting the variance prior needs two genes; without it one is enough."""
    out = tmp_path / "o.csv"
    config = {"kind": "microarray", "n_hypotheses": 1}
    cfg = write(tmp_path / "cfg.json", config_text(scenarios=[config]))
    assert cli.main(["simulate", "--config", cfg, "--reps", "2", "--out", str(out)]) == 2
    assert "n_hypotheses >= 2" in capsys.readouterr().err
    assert not out.exists()
    cfg = write(tmp_path / "cfg.json", config_text(scenarios=[{**config, "refit_hyperparameters": False}]))
    assert cli.main(["simulate", "--config", cfg, "--reps", "2", "--out", str(out)]) == 0


def test_simulate_procedure_overrides(tmp_path):
    cfg = write(tmp_path / "cfg.json", config_text(
        procedures=[{"name": "ep-storey", "alpha": 0.2, "tau": 0.4}]))
    out = tmp_path / "o.csv"
    assert cli.main(["simulate", "--config", cfg, "--reps", "3",
                     "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "o.manifest.json").read_text())
    assert manifest["procedures"][0]["alpha"] == 0.2
    assert manifest["procedures"][0]["tau"] == 0.4


def test_simulate_bad_json_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", "{not json")
    assert cli.main(["simulate", "--config", cfg, "--reps", "2",
                     "--out", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


def test_simulate_accepts_utf8_bom(tmp_path):
    """A config saved with a byte-order mark runs as the same config without."""
    plain = write(tmp_path / "plain.json", config_text())
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + config_text().encode())
    for cfg, out in ((plain, "plain-out.csv"), (str(bom), "bom-out.csv")):
        assert cli.main(["simulate", "--config", cfg, "--reps", "3",
                         "--seed", "5", "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "bom-out.csv").read_bytes() == (tmp_path / "plain-out.csv").read_bytes()


def test_simulate_flag_validation_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", config_text())
    assert cli.main(["simulate", "--config", cfg, "--reps", "0",
                     "--out", str(tmp_path / "o.csv")]) == 3
    assert cli.main(["simulate", "--config", cfg, "--reps", "2", "--seed", "-1",
                     "--out", str(tmp_path / "o.csv")]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------- moderate


def test_moderate_matches_library(tmp_path):
    rng = np.random.default_rng(8)
    k = 200
    sigma2 = 3.64 * 0.0144 / rng.chisquare(3.64, k)
    beta_hat = rng.standard_normal(k) * np.sqrt(0.1 * sigma2)
    s_sq = sigma2 * rng.chisquare(38.0, k) / 38.0
    lines = ["id,beta_hat,s_sq,v,nu"]
    for i in range(k):
        lines.append(f"g{i},{float(beta_hat[i])!r},{float(s_sq[i])!r},0.1,38")
    inp = write(tmp_path / "m.csv", "\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 0

    model, t, _ = fit_moderated_model(beta_hat, s_sq, np.full(k, 0.1), np.full(k, 38.0))
    p = moderated_t_pvalue(t, model)
    e = moderated_t_evalue(t, model)
    rows = read_rows(out)
    got_t = np.array([float(r["t_tilde"]) for r in rows])
    got_p = np.array([float(r["p"]) for r in rows])
    got_e = np.array([float(r["e"]) for r in rows])
    np.testing.assert_allclose(got_t, t, rtol=1e-12)
    np.testing.assert_allclose(got_p, p, rtol=1e-12)
    np.testing.assert_allclose(got_e, e, rtol=1e-12)
    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["gamma"] == pytest.approx(model.gamma)


def test_moderate_homogeneous_variances_take_gaussian_limit(tmp_path):
    # equal sample variances carry no heterogeneity, so the prior df is
    # infinite; the planted signal makes the fitted gamma positive
    rng = np.random.default_rng(21)
    k = 400
    v = np.where(np.arange(k) % 2 == 0, 0.1, 0.2)
    nu = np.where(np.arange(k) % 3 == 0, 10.0, 38.0)
    beta_hat = rng.standard_normal(k) * np.sqrt(v * 0.02)
    beta_hat[:40] += rng.standard_normal(40) * np.sqrt(2.0 * 0.02)
    lines = ["id,beta_hat,s_sq,v,nu"]
    for i in range(k):
        lines.append(f"g{i},{float(beta_hat[i])!r},0.02,{float(v[i])!r},{float(nu[i])!r}")
    inp = write(tmp_path / "m.csv", "\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 0

    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["df_prior"] == "inf"
    assert summary["gamma"] > 0.0
    rows = read_rows(out)
    t = np.array([float(r["t_tilde"]) for r in rows])
    p = np.array([float(r["p"]) for r in rows])
    e = np.array([float(r["e"]) for r in rows])
    np.testing.assert_allclose(t, beta_hat / np.sqrt(summary["s2_prior"] * v), rtol=1e-12)
    np.testing.assert_allclose(p, 2.0 * stats.norm.sf(np.abs(t)), rtol=1e-12)
    g = summary["gamma"] / v
    np.testing.assert_allclose(e, np.exp(g * t * t / (2.0 * (1.0 + g))) / np.sqrt(1.0 + g), rtol=1e-12)


def test_moderate_rejects_bad_variance(tmp_path, capsys):
    inp = write(tmp_path / "m.csv", "id,beta_hat,s_sq,v,nu\ng1,1.0,0.0,0.1,38\n")
    code = cli.main(["moderate", "--input", inp, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_moderate_rejects_non_finite_beta_hat(tmp_path, capsys, value):
    """A non-finite coefficient is no estimate (a NaN would zero the
    fitted gamma and set every e-value to 1); it is refused, naming its line."""
    inp = write(tmp_path / "m.csv", f"id,beta_hat,s_sq,v,nu\ng1,0.5,0.02,0.1,38\ng2,{value},0.02,0.1,38\n")
    out = tmp_path / "o.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 3: beta_hat must be finite\n"
    assert not out.exists()


def write_moderate_input(path, beta_hat, s_sq):
    lines = ["id,beta_hat,s_sq,v,nu"]
    for i in range(beta_hat.size):
        lines.append(f"g{i},{float(beta_hat[i])!r},{float(s_sq[i])!r},0.1,38")
    return write(path, "\n".join(lines) + "\n")


def one_huge_beta_hat(value):
    """199 rows from the hierarchical model, 20 with signal, one beta_hat set to value."""
    rng = np.random.default_rng(1407)
    k = 199
    sigma2 = 3.64 * 0.0144 / rng.chisquare(3.64, k)
    beta_hat = rng.standard_normal(k) * np.sqrt(0.1 * sigma2)
    beta_hat[:20] += rng.standard_normal(20) * np.sqrt(0.5 * sigma2[:20])
    beta_hat[5] = value
    s_sq = sigma2 * rng.chisquare(38.0, k) / 38.0
    return beta_hat, s_sq


def test_moderate_one_huge_beta_hat_keeps_the_gamma_fit(tmp_path, capsys):
    """A finite beta_hat whose t-statistic squares past the float range
    used to print an overflow warning and fit gamma = 0, setting every
    e-value to 1."""
    inp = write_moderate_input(tmp_path / "m.csv", *one_huge_beta_hat(1e200))
    out = tmp_path / "out.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["gamma"] > 0.0
    e = np.array([float(r["e"]) for r in read_rows(out)])
    assert (e != 1.0).all()


def test_moderate_infinite_t_counts_as_its_limiting_evidence(tmp_path, capsys):
    """A beta_hat near the float maximum gives t = inf, which fits the same
    gamma as a t that is merely huge, with no warning."""
    gammas, t_cells = [], []
    for value in (1.7e308, 1e200):
        inp = write_moderate_input(tmp_path / "m.csv", *one_huge_beta_hat(value))
        out = tmp_path / "out.csv"
        assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        gammas.append(json.loads((tmp_path / "out.json").read_text())["gamma"])
        t_cells.append(read_rows(out)[5]["t_tilde"])
    assert t_cells[0] == "inf" and np.isfinite(float(t_cells[1]))
    assert gammas[0] == gammas[1] > 0.0


def test_moderate_huge_beta_hat_in_the_gaussian_limit_takes_the_largest_gamma(tmp_path, capsys):
    """With equal sample variances df_prior is inf; t = 1e200 / sqrt(s2 v)
    squares past the float range, and its evidence grows without bound in
    gamma, so the top of the grid is fitted."""
    beta_hat = np.random.default_rng(1408).standard_normal(199) * np.sqrt(0.1 * 0.02)
    beta_hat[5] = 1e200
    inp = write_moderate_input(tmp_path / "m.csv", beta_hat, np.full(199, 0.02))
    out = tmp_path / "out.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["df_prior"] == "inf"
    assert summary["gamma"] == 1000.0


def test_moderate_tiny_variance_factor_warns_nothing(tmp_path, capsys):
    """With v = 1e-20 every t is in the billions, and the e-value bracket
    rounds to 0 where the fitted gamma is large; e overflows to inf there
    without the divide-by-zero warning numpy used to print."""
    beta_hat, s_sq = one_huge_beta_hat(0.1)
    rows = [f"g{i},{float(b)!r},{float(s)!r},1e-20,38" for i, (b, s) in enumerate(zip(beta_hat, s_sq))]
    inp = write(tmp_path / "m.csv", "id,beta_hat,s_sq,v,nu\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "inf" in {r["e"] for r in read_rows(out)}


@pytest.mark.parametrize("column", ["s_sq", "v", "nu"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_moderate_rejects_a_variance_column_not_positive_and_finite(tmp_path, capsys, column, value):
    """s_sq, v and nu share one rule; an infinite s_sq used to reach the
    prior fit and fail there without a line."""
    cells = {"s_sq": "0.02", "v": "0.1", "nu": "38"}
    bad = {**cells, column: value}
    rows = [f"g{i},0.5,{cells['s_sq']},{cells['v']},{cells['nu']}" for i in range(4)]
    rows[2] = f"g2,0.5,{bad['s_sq']},{bad['v']},{bad['nu']}"
    inp = write(tmp_path / "m.csv", "id,beta_hat,s_sq,v,nu\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line 4: {column} must be positive and finite\n"
    assert not out.exists()


def test_moderate_rejects_repeated_id(tmp_path, capsys):
    """As in adjust and combine, after the value checks."""
    rows = "g1,0.5,0.02,0.1,38\ng2,0.1,0.03,0.1,38\ng1,0.2,0.02,0.1,38\n"
    inp = write(tmp_path / "m.csv", "id,beta_hat,s_sq,v,nu\n" + rows)
    out = tmp_path / "o.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 4: duplicate id 'g1' (first seen on line 2)\n"
    assert not out.exists()
    # a bad value is named ahead of the repeated id
    write(tmp_path / "m.csv", "id,beta_hat,s_sq,v,nu\n" + rows + "g3,1.0,0.0,0.1,38\n")
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 5: s_sq must be positive and finite\n"


def test_moderate_zero_beta_hat_over_an_underflowed_scale_is_zero(tmp_path, capsys):
    """Where s2_post * v underflows to 0, a beta_hat of 0 gives t = 0, not
    0/0 = NaN, which wrote `nan` cells and zeroed the gamma fit; a nonzero
    beta_hat gives t = inf, with no numpy warning either way."""
    rows = "a,0,1e-300,1e-300,4\nb,1,1e-300,1e-300,4\nc,0.5,2,0.1,4\nd,0.2,3,0.1,4\n"
    inp = write(tmp_path / "m.csv", "id,beta_hat,s_sq,v,nu\n" + rows)
    out = tmp_path / "out.csv"
    assert cli.main(["moderate", "--input", inp, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    written = read_rows(out)
    assert [(r["t_tilde"], r["p"]) for r in written[:2]] == [("0.0", "1.0"), ("inf", "0.0")]
    assert all(cell != "nan" for row in written for cell in row.values())
    assert json.loads((tmp_path / "out.json").read_text())["gamma"] > 0.0


# ---------------------------------------------------------------- entry point


def test_module_entry_point(tmp_path):
    inp = write(tmp_path / "h.csv", HYP)
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "epmt", "adjust", "--input", str(inp),
         "--procedure", "e-bh", "--alpha", "0.5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_warning_prints_one_line_without_source(tmp_path):
    """A library warning reaches stderr as one `warning: <message>` line,
    not as the warning's source file and code line, and the outputs keep
    their bytes. The caller's filters still apply: an error filter raises."""
    inp = write(tmp_path / "one.csv", "id,p,e\na,0.01,30\n")
    argv = ["adjust", "--input", inp, "--procedure", "adaptive-e-bh"]
    out = tmp_path / "o.csv"
    proc = subprocess.run([sys.executable, "-m", "epmt", *argv, "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == "warning: adaptive e-BH needs at least two hypotheses; falling back to plain e-BH\n"
    assert out.read_bytes() == b"id,p,e,adjusted,rejected\na,0.01,30.0,30.0,1\n"
    summary = '{\n  "alpha": 0.05,\n  "k_star": 1,\n  "n_rejected": 1,\n  "procedure": "adaptive-e-bh"\n}\n'
    assert (tmp_path / "o.json").read_text() == summary
    with warnings.catch_warnings(), pytest.raises(SingleHypothesis):
        warnings.simplefilter("error", SingleHypothesis)
        cli.main([*argv, "--out", str(tmp_path / "raised.csv")])


NO_FILE = "cannot open {path}: [Errno 2] No such file or directory: '{path}'"


@pytest.mark.parametrize("argv, text, code, message", [
    (["adjust", "--procedure", "p-bh"], None, 2, NO_FILE),
    (["combine", "--mode", "quotient"], None, 2, NO_FILE),
    (["moderate"], None, 2, NO_FILE),
    (["adjust", "--procedure", "p-bh"], "", 2, "line 1: empty file, expected a header row"),
    (["moderate"], "", 2, "line 1: empty file, expected a header row"),
    (["moderate"], "id,beta_hat,s_sq,v,nu\ng1,1,1,0.1,38\n", 2, "need at least two sample variances to fit a prior"),
    (["simulate", "--parallelism", "0"], config_text(), 3, "--parallelism must be >= 1"),
    (["simulate"], "[]", 2, "config must be a JSON object"),
    (["simulate"], config_text(scenarios=[]), 2, "config key 'scenarios' is missing or empty"),
    (["simulate"], config_text(procedures=[{}]), 2, "each procedure entry must be a name or an object with 'name'"),
], ids=["adjust-no-file", "combine-no-file", "moderate-no-file", "adjust-empty-file", "moderate-empty-file",
        "moderate-one-row", "simulate-parallelism-0", "simulate-config-list", "simulate-no-scenarios",
        "simulate-procedure-without-name"])
def test_refusal_under_an_error_filter_prints_one_line(tmp_path, argv, text, code, message):
    """Each refusal exits with its code and one `error:` line under
    `python -W error`: no traceback and no warning."""
    path = tmp_path / "in"
    if text is not None:
        path.write_text(text)
    source = "--config" if argv[0] == "simulate" else "--input"
    command = [sys.executable, "-W", "error", "-m", "epmt", *argv, source, str(path), "--out", str(tmp_path / "o.csv")]
    proc = subprocess.run(command, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, f"error: {message.format(path=path)}\n")


GOLDEN = Path(__file__).parent / "golden"
needs_dev_stdin = pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")


def run_piped(tmp_path, argv, data: bytes):
    """(exit code, stderr) of `python -m epmt argv` with data on a pipe as
    its stdin, and TMPDIR an empty directory that must be empty after."""
    temp = tmp_path / "temp"
    temp.mkdir()
    command = [sys.executable, "-m", "epmt", *argv]
    proc = subprocess.run(command, input=data, capture_output=True, env={**os.environ, "TMPDIR": str(temp)})
    assert list(temp.iterdir()) == []
    return proc.returncode, proc.stderr.decode()


@needs_dev_stdin
@pytest.mark.parametrize("name", ["bad_value", "dup_id", "bad_fields", "bad_utf8", "filled"])
def test_piped_input_reads_as_the_file(tmp_path, capsys, name):
    """A pipe reads only once, and an error's line is found by reading the
    input again: a piped input is copied first, so each error exits 2
    with the file's message, and a valid input gives the file's bytes."""
    inp = GOLDEN / f"{name}.csv"
    argv = ["adjust", "--procedure", "ep-bh", "--input"]
    code = cli.main([*argv, str(inp), "--out", str(tmp_path / "file.csv")])
    expected = (code, capsys.readouterr().err)
    assert code == (0 if name == "filled" else 2)
    assert run_piped(tmp_path, [*argv, "/dev/stdin", "--out", str(tmp_path / "piped.csv")], inp.read_bytes()) == expected
    if not code:
        for suffix in (".csv", ".json"):
            assert (tmp_path / f"piped{suffix}").read_bytes() == (tmp_path / f"file{suffix}").read_bytes()


@needs_dev_stdin
def test_piped_config_with_a_byte_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys):
    data = b'{"procedures": ["p-bh"],\n "scenarios": [{"kind": "ttest\xff"}]}'
    argv = ["simulate", "--reps", "2", "--out", str(tmp_path / "o.csv"), "--config"]
    (tmp_path / "cfg.json").write_bytes(data)
    assert cli.main([*argv, str(tmp_path / "cfg.json")]) == 2
    expected = capsys.readouterr().err
    assert expected == "error: line 2: byte 0xff is not valid UTF-8\n"
    assert run_piped(tmp_path, [*argv, "/dev/stdin"], data) == (2, expected)


def test_writer_in_dev_mode_writes_the_in_process_bytes(tmp_path):
    """An output of several blocks, written by `python -X dev -W error -m
    epmt`, warns nothing and has the bytes of the writer called in process.
    e-bh writes its e column twice, as e and adjusted, and leaves the
    empty p cells empty."""
    rows = 7 * table._BLOCK_ROWS + 5
    rng = np.random.default_rng(1016)
    p, e = rng.random(rows).tolist(), rng.exponential(size=rows).tolist()
    ids = [{3: f'"a,""b""\nc{i}"', 4: f"ü{i}"}.get(i % 97, f"h{i}") for i in range(rows)]
    lines = [
        f"{ids[i]},{'' if i % 89 == 0 else repr(p[i])},{'inf' if i % 101 == 0 else repr(e[i])}" for i in range(rows)
    ]
    lines[7] = "neg,-0.0,-0.0"
    lines[8] = '"",0.5,'
    inp = write(tmp_path / "h.csv", "id,p,e\n" + "\n".join(lines) + "\n")
    argv = ["adjust", "--input", inp, "--procedure", "e-bh", "--alpha", "0.1"]
    assert cli.main([*argv, "--out", str(tmp_path / "inprocess.csv")]) == 0
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "epmt", *argv, "--out", str(tmp_path / "dev.csv")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "dev.csv").read_bytes() == (tmp_path / "inprocess.csv").read_bytes()
    assert (tmp_path / "dev.json").read_bytes() == (tmp_path / "inprocess.json").read_bytes()


C_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


@pytest.mark.parametrize(
    "argv", [["adjust", "--procedure", "ep-bh"], ["combine", "--mode", "quotient"]], ids=["adjust", "combine"]
)
def test_output_is_utf8_in_a_c_locale(tmp_path, argv):
    """In a C locale, whose text encoding is ASCII, a non-ASCII id is
    written as UTF-8, with the bytes of a UTF-8 locale."""
    inp = write(tmp_path / "in.csv", "id,p,e\ncafé,0.01,2\nb,0.5,1\n")
    written = {}
    for name, env in (("utf8", {"PYTHONUTF8": "1"}), ("c", C_LOCALE)):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "epmt", *argv, "--input", inp, "--out", str(out)],
            capture_output=True,
            env={**os.environ, **env},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        written[name] = out.read_bytes()
    assert written["c"] == written["utf8"]
    assert written["c"].splitlines()[1].startswith(b"caf\xc3\xa9,")


@pytest.mark.parametrize(
    "procedure",
    [["e-bh"], ["pe-bh"], ["ep-storey"], ["adaptive-e-bh"], ["adaptive-e-bh", "--merging", "max"]],
    ids=["e-bh", "pe-bh", "ep-storey", "adaptive-e-bh-mean", "adaptive-e-bh-max"],
)
def test_adjust_on_evalues_near_the_float_maximum_warns_nothing(tmp_path, procedure):
    """Products, quotients and sums of e-values past the float maximum are
    inf, the intended value: under `-W error` no overflow is raised, and
    the rejections are those of a run that ignores warnings."""
    inp = write(tmp_path / "in.csv", "id,p,e\na,0.01,1.7e308\nb,0.2,1.7e308\nc,0.3,1.5\nd,0.04,0.5\n")
    argv = ["adjust", "--input", inp, "--procedure", *procedure]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([*argv, "--out", str(tmp_path / "ignored.csv")]) == 0
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "epmt", *argv, "--out", str(tmp_path / "raised.csv")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read_rows(tmp_path / "raised.csv") == read_rows(tmp_path / "ignored.csv")
    assert [row["rejected"] for row in read_rows(tmp_path / "raised.csv")][:2] == ["1", "1"]


def run_fresh(code: str, **env) -> str:
    """Standard output of code run in a fresh interpreter, with
    OPENBLAS_NUM_THREADS unset unless env sets it."""
    environ = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**environ, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


RUN_VERSION = (
    "import runpy, sys; sys.argv = ['epmt', '--version']\n"
    "try:\n    runpy.run_module('epmt', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
)


def test_cli_import_loads_no_scipy_stats_or_optimize():
    """adjust and combine run on numpy alone: importing the package or the
    command line, or printing the version, loads no scipy, sim or
    constructors, and none of the process pool modules."""
    loaded = (
        "import sys; print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('scipy', 'multiprocessing', 'concurrent')"
        " or m in ('epmt.sim', 'epmt.constructors')))"
    )
    # the package itself loads no layer, so no numpy, and sets no environment
    package = "import os, sys, epmt; print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    assert run_fresh(package + loaded) == "False None\n[]\n"
    assert run_fresh(f"import epmt.cli; {loaded}") == "[]\n"
    assert run_fresh(RUN_VERSION + loaded) == "epmt 0.1.0\n[]\n"
    # sim and constructors, which simulate and moderate load, import scipy.special only
    scipy_layers = (
        "import sys, epmt.sim, epmt.constructors\n"
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    )
    assert run_fresh(scipy_layers) == "[]\n"


# numpy, and every module of the package but the command line's own
NOT_AT_START = (
    "import sys; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'"
    " or m.startswith('epmt.') and m not in ('epmt.cli', 'epmt.__main__')))"
)


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["adjust", "--input", "in.csv", "--procedure", "bh", "--out", "o.csv"], 3),
    (["simulate", "--config", "c.json", "--reps", "0", "--out", "o.csv"], 3),
], ids=["version", "help", "bad-procedure", "reps-0"])
def test_version_help_and_usage_errors_load_no_numpy_or_layer(argv, code):
    """`python -m epmt` answers these from argparse alone: it loads neither
    numpy nor any layer, nor the CSV layer."""
    run = (
        f"import runpy, sys; sys.argv = ['epmt', *{argv!r}]\n"
        "try:\n    runpy.run_module('epmt', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n    print(exc.code)\n"
    )
    assert run_fresh(run + NOT_AT_START).splitlines()[-2:] == [str(code), "[]"]


def test_procedure_choices_are_the_registry():
    """The parser lists the procedures without loading `procedures`, so
    its literal list must be the registry's names, sorted."""
    from epmt.procedures import REGISTRY

    (subcommands,) = [action for action in cli.build_parser()._actions if action.dest == "command"]
    adjust = subcommands.choices["adjust"]
    (procedure,) = [action for action in adjust._actions if action.dest == "procedure"]
    assert list(procedure.choices) == sorted(REGISTRY)
    assert "{" + ",".join(sorted(REGISTRY)) + "}" in adjust.format_usage()


def test_adjust_on_nine_blocks_loads_no_process_pool_module(tmp_path):
    """The writer formats every block in process: a fresh `adjust` on a
    file of nine blocks imports neither multiprocessing nor the process
    pool."""
    rows = 9 * table._BLOCK_ROWS
    p = np.random.default_rng(9).random(rows).tolist()
    inp = write(tmp_path / "in.csv", "id,p,e\n" + "".join(f"h{i},{p[i]!r},2\n" for i in range(rows)))
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['epmt', 'adjust', '--input', {inp!r}, '--procedure', 'ep-bh', '--out', {str(tmp_path / 'o.csv')!r}]\n"
        "try:\n    runpy.run_module('epmt', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'"
        " or m == 'concurrent.futures.process'))\n"
    )
    assert run_fresh(code) == "[]\n"
    assert len(read_rows(tmp_path / "o.csv")) == rows


THREADS = "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')))\n"


def test_command_loads_openblas_with_one_thread():
    """`python -m epmt` caps OpenBLAS before numpy loads: after the
    command, scipy's OpenBLAS loads capped too, and the process holds one
    OS thread, the one it forks its worker pools from."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc to count threads")
    code = RUN_VERSION + "import os, epmt.sim; print(os.environ['OPENBLAS_NUM_THREADS'])\n" + THREADS
    assert run_fresh(code) == "epmt 0.1.0\n1\n1\n"


def test_command_keeps_the_callers_openblas_threads():
    code = RUN_VERSION + "import os; print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert run_fresh(code, OPENBLAS_NUM_THREADS="2") == "epmt 0.1.0\n2\n"


def test_importing_the_script_module_caps_threads_without_running_the_command():
    code = "import os, epmt.__main__; print(os.environ['OPENBLAS_NUM_THREADS'], callable(epmt.__main__.entry))"
    assert run_fresh(code) == "1 True\n"


def test_installed_script_caps_openblas_before_numpy_loads(tmp_path):
    """The `epmt` script of pyproject.toml names a function whose module
    sets OPENBLAS_NUM_THREADS before numpy is first imported: here by
    `adjust`, which loads numpy and then finds no input file."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    module, _, function = pyproject["project"]["scripts"]["epmt"].partition(":")
    argv = ["epmt", "adjust", "--input", str(tmp_path / "in.csv"), "--procedure", "p-bh", "--out", str(tmp_path / "o.csv")]
    code = (
        "import importlib, os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        f"entry = getattr(importlib.import_module({module!r}), {function!r})\n"
        f"sys.argv = {argv!r}\n"
        "try:\n    entry()\nexcept SystemExit as exc:\n    print(seen, exc.code)"
    )
    assert run_fresh(code) == "['1'] 2\n"
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main([]) == 3  # a subcommand is required
    capsys.readouterr()


# ---------------------------------------------------------------- process end


def run_command(argv) -> subprocess.CompletedProcess:
    """`python -m epmt argv` with block-buffered standard output, as from a
    pipe or a file: PYTHONUNBUFFERED, which would hide a buffer left
    unflushed at exit, is removed from its environment. COLUMNS fixes the
    width of the help text."""
    environ = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "epmt", *argv], capture_output=True, text=True, env={**environ, "COLUMNS": "80"}
    )


def hypotheses_input(path, rows: int) -> str:
    rng = np.random.default_rng(rows)
    p, e = rng.random(rows).tolist(), rng.exponential(size=rows).tolist()
    return write(path, "id,p,e\n" + "".join(f"h{i},{p[i]!r},{e[i]!r}\n" for i in range(rows)))


def moderate_input(path, rows: int) -> str:
    rng = np.random.default_rng(rows)
    sigma2 = 3.64 * 0.0144 / rng.chisquare(3.64, rows)
    beta_hat = rng.standard_normal(rows) * np.sqrt(0.1 * sigma2)
    return write_moderate_input(path, beta_hat, sigma2 * rng.chisquare(38.0, rows) / 38.0)


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["adjust", "--input", "{tmp}/in.csv", "--procedure", "bh", "--out", "{tmp}/o.csv"], 3),
    (["adjust", "--input", "{tmp}/missing.csv", "--procedure", "p-bh", "--out", "{tmp}/o.csv"], 2),
], ids=["version", "help", "usage-error", "missing-input"])
def test_command_exit_prints_what_main_prints(tmp_path, monkeypatch, capsys, argv, code):
    """The command's exit flushes every line that in-process `main`
    prints, and exits with main's code."""
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == code
    printed = capsys.readouterr()
    proc = run_command(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, printed.out, printed.err)
    if argv == ["--version"]:
        assert proc.stdout == "epmt 0.1.0\n"


def test_command_exit_writes_the_in_process_bytes(tmp_path):
    inp = hypotheses_input(tmp_path / "h.csv", 3 * table._BLOCK_ROWS + 5)
    argv = ["adjust", "--input", inp, "--procedure", "ep-bh", "--alpha", "0.2"]
    assert cli.main([*argv, "--out", str(tmp_path / "inprocess.csv")]) == 0
    proc = run_command([*argv, "--out", str(tmp_path / "command.csv")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "command.csv").read_bytes() == (tmp_path / "inprocess.csv").read_bytes()
    assert (tmp_path / "command.json").read_bytes() == (tmp_path / "inprocess.json").read_bytes()


def test_command_runs_without_the_cyclic_collector():
    """entry() turns the collector off for the command and freezes what
    is left tracked, so the exit-time collections skip it."""
    code = RUN_VERSION + "import gc; print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    assert run_fresh(code) == "epmt 0.1.0\nFalse True\n"


def test_main_keeps_the_cyclic_collector(capsys):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert cli.main(["--version"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (True, frozen)
    capsys.readouterr()


ROWS = 10_000  # 2 blocks of the writer; 4x this is 5 blocks, and 2 reads of the reader


def simulate_argv(parallelism: str):
    """simulate's arguments for n rows: n // 1000 replicates of a t-test
    and a microarray scenario."""
    scenarios = [{"kind": "ttest", "n_hypotheses": 150}, {"kind": "microarray", "n_hypotheses": 200}]
    return lambda path, n: [
        "--config", write(path, config_text(scenarios=scenarios)), "--reps", str(n // 1000), "--parallelism", parallelism
    ]


@pytest.mark.parametrize("command, argv", [
    ("adjust", lambda path, n: ["--input", hypotheses_input(path, n), "--procedure", "ep-bh"]),
    ("combine", lambda path, n: ["--input", hypotheses_input(path, n), "--mode", "quotient"]),
    ("moderate", lambda path, n: ["--input", moderate_input(path, n)]),
    ("simulate", simulate_argv("1")),
    ("simulate", simulate_argv("2")),
], ids=["adjust", "combine", "moderate", "simulate-par1", "simulate-par2"])
def test_a_run_leaks_no_resource_and_cyclic_garbage_that_grows(tmp_path, command, argv):
    """The command runs without the cyclic collector (entry), so what the
    collector would have found is checked here: with it off, a run leaves
    no file or other resource to a finalizer (no ResourceWarning), and the
    cyclic garbage it leaves is the same at 1x and 4x the rows (or
    replicates). A first run at 1x loads what the command loads once."""
    unraised = []
    hook, sys.unraisablehook = sys.unraisablehook, unraised.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            collected = []
            for n in (ROWS, ROWS, 4 * ROWS):
                run = [command, *argv(tmp_path / f"in{n}", n), "--out", str(tmp_path / "o.csv")]
                gc.collect()
                gc.disable()
                assert cli.main(run) == 0
                collected.append(gc.collect())
                gc.enable()
    finally:
        sys.unraisablehook = hook
        gc.enable()
    assert [u.exc_value for u in unraised] == []
    assert collected[1] == collected[2], collected
