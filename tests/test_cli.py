"""Tests for the command line interface.

Most tests call cli.main() in process for speed; one subprocess test
covers the `python -m` entry point.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from epmt import cli
from epmt.calib import sqrt_calibrator
from epmt.constructors import fit_moderated_model, moderated_t, moderated_t_evalue
from epmt.procedures import ep_bh, ep_storey


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
    inp = write(tmp_path / "hyp.csv", HYP)
    code = cli.main(["adjust", "--input", inp, "--procedure", "p-bh",
                     "--alpha", "1.5", "--out", str(tmp_path / "o.csv")])
    assert code == 3
    capsys.readouterr()


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
    _, p = moderated_t(beta_hat, s_sq, model)
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


def test_cli_import_loads_no_scipy_stats_or_optimize():
    """Startup needs scipy.special only; scipy.stats alone costs most of a second."""
    code = "import epmt.cli, sys; print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main([]) == 3  # a subcommand is required
    capsys.readouterr()
