import json
import re
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from canoc import canlog
from canoc.cli import main
from canoc.features import (FeatureSpec, apply_scaler, fit_scaler, read_feature_csv,
                            write_feature_csv)
from canoc.models import FAMILY_PARAMS, MODEL_FAMILIES, fit_model, save_model
from canoc.simulate import LabeledLog, iter_labeled


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate(tmp_path, capsys, name="base.csv", duration=30.0, seed=0):
    log = tmp_path / name
    code, out, _ = run(capsys, "simulate", "--out", log, "--duration", duration,
                       "--seed", seed)
    assert code == 0
    return log, Path(str(log) + ".labels.csv")


def test_simulate_writes_log_and_labels(tmp_path, capsys):
    log, labels = simulate(tmp_path, capsys)
    assert log.exists() and labels.exists()
    header = log.read_text().splitlines()[0]
    assert header == "timestamp,id,dlc,payload"


def test_simulate_prints_frame_count(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--out", tmp_path / "x.csv",
                       "--duration", 5.0)
    assert code == 0 and "frames" in out and "10 ids" in out


def test_simulate_default_bus_frame_count_matches_period_arithmetic(tmp_path, capsys):
    from canoc.simulate import DEFAULT_PERIODS
    log = tmp_path / "x.csv"
    code, _, _ = run(capsys, "simulate", "--out", log, "--duration", 120.0)
    assert code == 0
    frames = len(log.read_text().splitlines()) - 1
    expected = sum(120.0 / p for p in DEFAULT_PERIODS)
    assert abs(frames - expected) / expected < 0.01


def test_simulate_zero_duration_usage_error(tmp_path, capsys):
    for duration in ("0", "inf", "nan"):
        code, _, err = run(capsys, "simulate", "--out", tmp_path / "x.csv",
                           "--duration", duration)
        assert code == 2 and "duration" in err, duration


def test_simulate_deterministic_bytes(tmp_path, capsys):
    a, la = simulate(tmp_path, capsys, "a.csv", duration=10.0, seed=7)
    b, lb = simulate(tmp_path, capsys, "b.csv", duration=10.0, seed=7)
    assert a.read_bytes() == b.read_bytes()
    assert la.read_bytes() == lb.read_bytes()


def test_inject_and_extract_pipeline(tmp_path, capsys):
    log, labels = simulate(tmp_path, capsys, duration=20.0)
    attacked = tmp_path / "attacked.csv"
    code, out, _ = run(capsys, "inject", "--in", log, "--labels", labels,
                       "--out", attacked, "--kind", "zero_id", "--rate", 300,
                       "--start", 5, "--end", 10, "--seed", 1)
    assert code == 0 and "injected" in out
    feats = tmp_path / "features.csv"
    code, out, _ = run(capsys, "extract", "--in", attacked,
                       "--labels", str(attacked) + ".labels.csv",
                       "--out", feats)
    assert code == 0
    rows = feats.read_text().splitlines()
    assert len(rows) == 21  # header + 20 windows
    assert any(row.startswith("zero_id") for row in rows[1:])


def test_extract_row_count_matches_windows(tmp_path, capsys):
    log, _ = simulate(tmp_path, capsys, duration=60.0)
    feats = tmp_path / "f.csv"
    code, _, _ = run(capsys, "extract", "--in", log, "--out", feats)
    assert code == 0
    assert len(feats.read_text().splitlines()) == 61


def test_extract_deterministic(tmp_path, capsys):
    log, _ = simulate(tmp_path, capsys, duration=15.0)
    f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    run(capsys, "extract", "--in", log, "--out", f1)
    run(capsys, "extract", "--in", log, "--out", f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_extract_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "extract", "--in", tmp_path / "nope.csv",
                       "--out", tmp_path / "f.csv")
    assert code == 2


def test_extract_with_vocab_file(tmp_path, capsys):
    log, _ = simulate(tmp_path, capsys, duration=10.0)
    vocab_path = tmp_path / "vocab.json"
    f1 = tmp_path / "f1.csv"
    run(capsys, "extract", "--in", log, "--out", f1, "--save-vocab", vocab_path)
    assert vocab_path.exists()
    f2 = tmp_path / "f2.csv"
    code, _, _ = run(capsys, "extract", "--in", log, "--out", f2,
                     "--vocab", vocab_path)
    assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("flag, value", [("--window", "inf"), ("--window", "nan"),
                                         ("--window", "0"), ("--stride", "inf")])
def test_extract_rejects_bad_window_flag(tmp_path, capsys, flag, value):
    log, _ = simulate(tmp_path, capsys, duration=5.0)
    feats = tmp_path / "f.csv"
    code, _, err = run(capsys, "extract", "--in", log, "--out", feats, flag, value)
    assert code == 2 and err.startswith("error:") and flag[2:] in err, err
    assert not feats.exists()


@pytest.mark.parametrize("log_row, label, expected", [
    ("0.0,0x100,\u0663,AABBCC", "normal", "log file {log}: byte outside printable ASCII (row 1)"),
    ("0.0,0x100,0_3,AABBCC", "normal", "log file {log}: invalid dlc (row 1)"),
    ("0.0,0x100,3,AABBCC", "zero_id,x", "label file {labels}: line 2: label 'zero_id,x'"),
    ("0.0,0x100,3,AABBCC", "\xff",
     "label file {labels}: line 2 is not UTF-8 (invalid start byte)"),
    ("0.0,0x100,3,AABBCC", "normal\nnormal",
     "label file {labels}: one label per frame required"),
    ("0.0,0x100,3,AABBCC", "", "label file {labels}: line 2: blank label"),
], ids=["dlc non-ASCII digit", "dlc underscore", "label with comma", "label not UTF-8",
        "one label too many", "blank label"])
def test_extract_rejects_malformed_log_or_labels(tmp_path, capsys, log_row, label,
                                                  expected):
    log, labels = tmp_path / "log.csv", tmp_path / "log.labels.csv"
    log.write_text(f"timestamp,id,dlc,payload\n{log_row}\n", encoding="utf-8")
    labels.write_bytes(f"label\n{label}\n".encode("latin-1"))  # "\xff" is that byte
    feats = tmp_path / "f.csv"
    code, _, err = run(capsys, "extract", "--in", log, "--labels", labels, "--out", feats)
    assert code == 2 and err.startswith("error: " + expected.format(log=log, labels=labels)), err
    assert err.count("\n") == 1 and not feats.exists()


def trained_model(tmp_path, capsys, family="svdd", duration=40.0, **extra):
    log, _ = simulate(tmp_path, capsys, duration=duration)
    feats = tmp_path / "train_features.csv"
    run(capsys, "extract", "--in", log, "--out", feats)
    model = tmp_path / "model.json"
    argv = ["train", "--features", feats, "--out", model, "--family", family]
    for key, value in extra.items():
        argv += [f"--{key}", value]
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    return model


def test_train_happy_path(tmp_path, capsys):
    model = trained_model(tmp_path, capsys)
    doc = json.loads(model.read_text())
    assert doc["family"] == "svdd"
    assert doc["extraction"]["window"] == 1.0
    assert len(doc["extraction"]["ids"]) == 10


@pytest.mark.parametrize("cell, expected", [
    ("nan", "line 4, column '{column}': 'nan' is not a finite number"),
    ("1\xff", "line 4 is not UTF-8 (invalid start byte)"),
    ("1,2", "row arity mismatch at line 4")], ids=["nan", "not UTF-8", "extra cell"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_feature_file_is_an_input_error_naming_file_and_line(tmp_path, capsys, command,
                                                                 cell, expected):
    log, _ = simulate(tmp_path, capsys, duration=10.0)
    feats, model = tmp_path / "features.csv", tmp_path / "m.json"
    run(capsys, "extract", "--in", log, "--out", feats)
    assert run(capsys, "train", "--features", feats, "--out", model)[0] == 0
    lines = feats.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = cell
    lines[3] = ",".join(cells)
    feats.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))  # "\xff" is that byte
    header = lines[0].split(",")
    argv = {"train": ["train", "--features", feats, "--out", tmp_path / "m2.json"],
            "eval": ["eval", "--model", model, "--features", feats]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: feature file {feats}: {expected.format(column=header[2])}\n"


def test_train_rejects_attack_rows_without_flag(tmp_path, capsys):
    log, labels = simulate(tmp_path, capsys, duration=20.0)
    attacked = tmp_path / "attacked.csv"
    run(capsys, "inject", "--in", log, "--labels", labels, "--out", attacked,
        "--kind", "replay", "--segment", "2:3", "--start", "10", "--end", "12",
        "--repeat", "2")
    feats = tmp_path / "feat.csv"
    run(capsys, "extract", "--in", attacked,
        "--labels", str(attacked) + ".labels.csv", "--out", feats)
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--features", feats, "--out", model)
    assert code == 3
    assert "training data must be target-class only" in err
    code, _, _ = run(capsys, "train", "--features", feats, "--out", model,
                     "--filter-normal")
    assert code == 0


def test_eval_perfect_fixture(tmp_path, capsys):
    log, labels = simulate(tmp_path, capsys, duration=40.0)
    feats = tmp_path / "train.csv"
    vocab = tmp_path / "vocab.json"
    run(capsys, "extract", "--in", log, "--out", feats, "--save-vocab", vocab)
    model = tmp_path / "model.json"
    run(capsys, "train", "--features", feats, "--out", model, "--family", "svdd")

    attacked = tmp_path / "attacked.csv"
    run(capsys, "inject", "--in", log, "--labels", labels, "--out", attacked,
        "--kind", "zero_id", "--rate", 500, "--start", 10, "--end", 30)
    test_feats = tmp_path / "test.csv"
    run(capsys, "extract", "--in", attacked, "--vocab", vocab,
        "--labels", str(attacked) + ".labels.csv", "--out", test_feats)

    table = tmp_path / "table.csv"
    summary = tmp_path / "summary.json"
    code, out, _ = run(capsys, "eval", "--model", model, "--features", test_feats,
                       "--out-table", table, "--out-summary", summary)
    assert code == 0
    assert "gmean=" in out and "gmean[zero_id]=" in out
    head = table.read_text().splitlines()[0]
    assert head == "model,normal,random_id,replay,zero_id"
    doc = json.loads(summary.read_text())
    assert doc["tp"] + doc["fn"] == 20


def test_eval_missing_model(tmp_path, capsys):
    code, _, _ = run(capsys, "eval", "--model", tmp_path / "nope.json",
                     "--features", tmp_path / "nope.csv")
    assert code == 2


def test_detect_clean_log_exits_zero(tmp_path, capsys):
    model = trained_model(tmp_path, capsys, duration=40.0)
    clean = tmp_path / "clean.csv"
    run(capsys, "simulate", "--out", clean, "--duration", 10.0, "--seed", 3)
    code, out, _ = run(capsys, "detect", "--model", model, "--in", clean)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.endswith(",normal") for line in lines)


def test_detect_flood_exits_four(tmp_path, capsys):
    model = trained_model(tmp_path, capsys, duration=40.0)
    clean = tmp_path / "clean.csv"
    run(capsys, "simulate", "--out", clean, "--duration", 10.0, "--seed", 3)
    attacked = tmp_path / "attacked.csv"
    run(capsys, "inject", "--in", clean, "--out", attacked, "--kind", "zero_id",
        "--rate", 500, "--start", 4, "--end", 7, "--seed", 5)
    code, out, _ = run(capsys, "detect", "--model", model, "--in", attacked)
    assert code == 4
    assert any(line.endswith(",anomaly") for line in out.splitlines())


def test_detect_scores_empty_windows_by_convention(tmp_path, capsys):
    # a silent gap in the middle of the log yields frame-less windows, which
    # are still scored (absent-ID features) rather than skipped
    model = trained_model(tmp_path, capsys, duration=30.0)
    gap_log = tmp_path / "gapped.csv"
    lines = ["timestamp,id,dlc,payload"]
    for t in (0.0, 0.4, 0.8):
        lines.append(f"{t:.6f},0x100,0,")
    for t in (5.2, 5.6, 6.0):
        lines.append(f"{t:.6f},0x100,0,")
    gap_log.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "detect", "--model", model, "--in", gap_log)
    assert len(out.strip().splitlines()) == 7  # windows 0..6, several empty
    assert code in (0, 4)


def test_detect_rejects_empty_log(tmp_path, capsys):
    model = trained_model(tmp_path, capsys, duration=20.0)
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,id,dlc,payload\n")
    code, out, err = run(capsys, "detect", "--model", model, "--in", empty)
    assert code == 2 and out == ""
    assert err == f"error: input log {empty} is empty\n"


def test_detect_deterministic_output(tmp_path, capsys):
    model = trained_model(tmp_path, capsys, duration=30.0)
    clean = tmp_path / "probe.csv"
    run(capsys, "simulate", "--out", clean, "--duration", 8.0, "--seed", 11)
    _, out1, _ = run(capsys, "detect", "--model", model, "--in", clean)
    _, out2, _ = run(capsys, "detect", "--model", model, "--in", clean)
    assert out1 == out2


def test_config_file_supplies_defaults_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("duration = 6.0\nseed = 9  # comment\n")
    out1 = tmp_path / "one.csv"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out", out1)
    assert code == 0
    # flag overrides the config value
    out2 = tmp_path / "two.csv"
    run(capsys, "simulate", "--config", cfg, "--out", out2, "--duration", 3.0)
    n1 = len(out1.read_text().splitlines())
    n2 = len(out2.read_text().splitlines())
    assert n1 > n2


@pytest.mark.parametrize("argv", [["extract", "--in", "log.csv", "--out", "f.csv"],
                                  ["train", "--features", "f.csv", "--out", "m.json"],
                                  ["eval", "--model", "m.json", "--features", "f.csv"],
                                  ["detect", "--model", "m.json", "--in", "log.csv"]],
                         ids=lambda argv: argv[0])
def test_only_simulate_and_inject_take_a_seed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_seed_config_key_is_unknown_to_detect(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    code, out, err = run(capsys, "detect", "--config", cfg, "--model", tmp_path / "m.json",
                         "--in", tmp_path / "log.csv")
    assert code == 2 and out == "" and "unknown config key 'seed'" in err


# bucket None: the text is no boolean, and extract exits 2
@pytest.mark.parametrize("text, bucket", [("1", False), ("TRUE", False), ("Yes", False),
                                          ("on", False), ("0", True), ("False", True),
                                          ("NO", True), ("Off", True), ("ture", None),
                                          ("", None), ("2", None), ("enabled", None)])
def test_config_boolean_takes_each_spelling_in_any_case_and_nothing_else(
        tmp_path, capsys, detect_inputs, text, bucket):
    log, _ = detect_inputs
    cfg, out, vocab = tmp_path / "run.cfg", tmp_path / "out.csv", tmp_path / "vocab.json"
    cfg.write_text(f"no-other-bucket = {text}\n")
    code, stdout, err = run(capsys, "extract", "--config", cfg, "--in", log, "--out", out,
                            "--save-vocab", vocab)
    if bucket is None:
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith(f"error: config file {cfg}: config key 'no-other-bucket'"), err
        assert repr(text) in err
    else:
        assert code == 0 and json.loads(vocab.read_text())["include_other_bucket"] is bucket


@pytest.mark.parametrize("line, message", [
    ("duration = abc", "config key 'duration': 'abc' is not a valid float"),
    ("seed = 1.5", "config key 'seed': '1.5' is not a valid int"),
    ("duration = \xff", "line 1 is not UTF-8 (invalid start byte)"),
    ("duration 5", "line 1 is not 'key = value': duration 5"),
    ("bogus = 1", "unknown config key 'bogus'")])
def test_config_error_names_the_file(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(line.encode("latin-1") + b"\n")  # "\xff" is that byte
    code, out, err = run(capsys, "simulate", "--config", cfg, "--out", tmp_path / "x.csv")
    assert code == 2 and out == "" and not (tmp_path / "x.csv").exists()
    assert err == f"error: config file {cfg}: {message}\n"


def test_config_supplies_no_required_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {tmp_path / 'x.csv'}\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "simulate", "--config", cfg,
                       "--out", tmp_path / "x.csv")
    assert code == 2 and "bogus" in err


# --- malformed model files ------------------------------------------------------

@pytest.fixture(scope="module")
def detect_inputs(tmp_path_factory):
    """A clean log and the JSON document of a model trained on it."""
    d = tmp_path_factory.mktemp("detect")
    log, feats, model = d / "log.csv", d / "features.csv", d / "model.json"
    assert main(["simulate", "--out", str(log), "--duration", "20"]) == 0
    assert main(["extract", "--in", str(log), "--out", str(feats)]) == 0
    assert main(["train", "--features", str(feats), "--out", str(model)]) == 0
    return log, json.loads(model.read_text())


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _set(value, *path):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


def _version_1(doc):
    return {"format": "canoc-model", "version": 1, "family": "svdd",
            "inner": {"type": "svdd"}, "extraction": doc["extraction"]}


def _short_alphas(doc):
    doc["alphas"].pop()
    return doc


MALFORMED = {
    "missing family": (_drop("family"), "'family'"),
    "missing kernel": (_drop("kernel"), "'kernel'"),
    "missing alphas": (_drop("alphas"), "'alphas'"),
    "version 1": (_version_1, "re-train"),
    "top-level list": (lambda doc: [doc], "not a canoc model"),
    "string in alphas": (_set(["x"], "alphas"), "'alphas'"),
    "short alphas": (_short_alphas, "alphas"),
    "r_squared NaN": (_set(float("nan"), "r_squared"), "'r_squared'"),
    "r_squared huge integer": (_set(10 ** 400, "r_squared"), "'r_squared'"),
    "alphas huge integer": (_set([10 ** 400], "alphas"), "'alphas'"),
    "scaler mean Infinity": (_set(float("inf"), "scaler", "mean", 0), "'scaler.mean[0]'"),
    "params C -Infinity": (_set(float("-inf"), "params", "C"), "'params.C'"),
    "extraction window NaN": (_set(float("nan"), "extraction", "window"),
                              "'extraction.window'"),
    "unknown transform": (_set([{"kind": "rotate"}], "transforms"), "'transforms[0].kind'"),
    "whiten transform": (_set([{"kind": "whiten", "matrix": [[1.0]]}], "transforms"),
                         "'transforms[0].kind'"),
    "unknown family": (_set("forest", "family"), "'family'"),
    "bad kernel kind": (_set({"kind": "poly", "sigma": None}, "kernel"), "'kernel'"),
    "numeric vocabulary id": (_set([256], "extraction", "ids"), "'extraction'"),
    "list as window": (_set([1.0], "extraction", "window"), "'extraction'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_detect_rejects_malformed_model(tmp_path, capsys, detect_inputs, case):
    log, doc = detect_inputs
    edit, expected = MALFORMED[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(json.loads(json.dumps(doc)))))
    code, out, err = run(capsys, "detect", "--model", path, "--in", log)
    assert code == 2 and out == ""
    assert err.startswith("error:") and expected in err, err
    assert f"model file {path}: " in err, err


@pytest.mark.parametrize("text", ["1e999", "-1e999"])
def test_detect_rejects_overflowing_number(tmp_path, capsys, detect_inputs, text):
    log, doc = detect_inputs
    doc = json.loads(json.dumps(doc))
    doc["extraction"]["stride"] = 123.25
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc).replace("123.25", text))
    code, _, err = run(capsys, "detect", "--model", path, "--in", log)
    assert code == 2 and err.startswith("error:") and "'extraction.stride'" in err


LONG_FIELD = "x" * 200_000  # past the csv module's 131,072-character field limit


@pytest.mark.parametrize("where, expected", [
    ("header", "first line is not the header timestamp,id,dlc,payload\n"),
    ("data", "payload longer than 8 bytes (row 2)\n")])
@pytest.mark.parametrize("command", ["extract", "inject", "detect"])
def test_oversized_csv_field_is_an_input_error(tmp_path, capsys, detect_inputs, command,
                                               where, expected):
    _, doc = detect_inputs
    log, model = tmp_path / "log.csv", tmp_path / "model.json"
    if where == "header":
        log.write_text(f"timestamp,id,dlc,payload,{LONG_FIELD}\n0.0,0x100,0,,\n")
    else:
        log.write_text(f"timestamp,id,dlc,payload\n0.0,0x100,0,\n0.1,0x100,0,{LONG_FIELD}\n")
    model.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    argv = {"extract": ["extract", "--in", log, "--out", out],
            "inject": ["inject", "--in", log, "--out", out, "--kind", "zero_id",
                       "--rate", 10, "--start", 0, "--end", 1],
            "detect": ["detect", "--model", model, "--in", log]}[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and err == f"error: log file {log}: {expected}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "model.json"]


# each form of input that the log grammar does not take, at the row it breaks:
# the format, the line (data row 2, or the header), and the form
BREAKING = [
    ("candump", "", "blank line"), ("csv", "", "blank line"),
    ("candump", "   ", "whitespace-only line"), ("csv", " \t ", "whitespace-only line"),
    ("candump", "(0.6)  can0 100#00", "double space"),
    ("candump", " (0.6) can0 100#00", "leading space"),
    ("candump", "(0.6) can0 100#00 ", "trailing space"),
    ("csv", "0.6, 0x100,1,00", "space after a comma"),
    ("candump", "(0.6)\u00a0can0 100#00", "no-break space"),
    ("csv", "0.6,0x100,1,00\u3000", "ideographic space"),
    ("candump", "(+0.6) can0 100#00", "signed timestamp"),
    ("csv", "-0.6,0x100,1,00", "signed timestamp"),
    ("candump", "(6e-1) can0 100#00", "exponent timestamp"),
    ("csv", "6E-1,0x100,1,00", "exponent timestamp"),
    ("header", "id,timestamp,dlc,payload", "reordered header"),
    ("header", "timestamp,id,dlc,payload,note", "extra column"),
    ("header", "timestamp,id,payload", "missing column"),
    ("header", '"timestamp","id","dlc","payload"', "quoted header"),
    ("csv", "0.6,256,1,00", "decimal id"),
    ("csv", "0.6,0x000000100,1,00", "9-digit 0x id"),
    ("csv", "0.6,0x100,01,00", "multi-digit dlc"),
    ("csv", "0.6,0x100,1,0x00", "0x payload"),
    ("csv", '0.6,0x100,1,"00"', "quoted field"),
    ("csv", '"0.6",0x100,1,00', "quoted timestamp"),
    ("candump", "(0.6) c\u00e4n0 100#00", "non-ASCII byte"),
    ("csv", "0.6,0x100,1,00\u00e9", "non-ASCII byte"),
]


@pytest.mark.parametrize("fmt, line, form", BREAKING,
                         ids=[f"{fmt}-{form}" for fmt, _, form in BREAKING])
@pytest.mark.parametrize("command", ["extract", "detect"])
def test_input_outside_the_log_grammar_exits_2_naming_file_and_row(
        tmp_path, capsys, detect_inputs, command, fmt, line, form):
    _, doc = detect_inputs
    log, model = tmp_path / "log", tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    good = {"candump": "({}) can0 100#00", "csv": "{},0x100,1,00"}
    if fmt == "header":
        text = f"{line}\n0.5,0x100,1,00\n"
    else:
        text = ("timestamp,id,dlc,payload\n" if fmt == "csv" else "") + "".join(
            f"{row}\n" for row in (good[fmt].format(0.5), line, good[fmt].format(0.7)))
    log.write_bytes(text.encode())
    argv = {"extract": ["extract", "--in", log, "--out", tmp_path / "out.csv"],
            "detect": ["detect", "--model", model, "--in", log]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: log file {log}: ")
    assert ("first line is not the header" if fmt == "header" else "(row 2)") in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "model.json"]


@pytest.mark.parametrize("command", ["extract", "detect"])
def test_log_spanning_too_many_windows_is_an_input_error(tmp_path, capsys, detect_inputs,
                                                         command):
    _, doc = detect_inputs
    log, model = tmp_path / "log.csv", tmp_path / "model.json"
    log.write_text("timestamp,id,dlc,payload\n0.0,0x100,0,\n10000000000.0,0x100,0,\n")
    model.write_text(json.dumps(doc))
    argv = {"extract": ["extract", "--in", log, "--out", tmp_path / "out.csv"],
            "detect": ["detect", "--model", model, "--in", log]}[command]
    started = time.perf_counter()
    code, stdout, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and stdout == "" and err.count("error:") == 1, err
    assert "1e+10 s log at a 1 s stride needs 10000000001 windows" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "model.json"]


# --- vocabulary files and vocabulary mismatches ------------------------------------

def _old_nested_layout(spec):
    return {"ids": spec["ids"], "include_other_bucket": spec["include_other_bucket"],
            "extraction": {key: spec[key] for key in ("window", "stride", "stdev_mode")}}


MALFORMED_VOCAB = {
    "missing ids": (_drop("ids"), "'ids'"),
    "nested id": (_set([[1]], "ids"), "ids must"),
    "numeric id": (_set([256], "ids"), "ids must"),
    "ids as a string": (_set("0x100", "ids"), "ids must"),
    "window null": (_set(None, "window"), "window must"),
    "window zero": (_set(0, "window"), "window must"),
    "window Infinity": (_set(float("inf"), "window"), "window must"),
    "stride NaN": (_set(float("nan"), "stride"), "stride must"),
    "bogus stdev_mode": (_set("bogus", "stdev_mode"), "stdev_mode must"),
    "top-level list": (lambda spec: [spec], "must be an object"),
    "unknown key": (_set(1, "bogus"), "'bogus'"),
    "old nested layout": (_old_nested_layout, "'extraction'"),
}


@pytest.mark.parametrize("command", ["extract", "train"])
@pytest.mark.parametrize("case", sorted(MALFORMED_VOCAB))
def test_malformed_vocabulary_file_is_a_usage_error(tmp_path, capsys, detect_inputs,
                                                    case, command):
    log, doc = detect_inputs
    edit, expected = MALFORMED_VOCAB[case]
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(edit(json.loads(json.dumps(doc["extraction"])))))
    out = tmp_path / "out"
    if command == "extract":
        argv = ["extract", "--in", log, "--vocab", vocab, "--out", out]
    else:
        argv = ["train", "--features", log.with_name("features.csv"),
                "--extraction-config", vocab, "--out", out]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:") and expected in err, err
    assert "Traceback" not in err and not out.exists()


# an id tag and the feature-CSV column of the f_ name it replaces: past the
# 29-bit range in the last vocabulary triple, or negative in the first; a
# vocabulary file spells every id in 0x-hex, so it takes only the first two
BAD_ID_TAGS = {"huge": ("0x1FFFFFFFFFFFFFFFFFFFF", -6), "past 29 bits": ("0x20000000", -6),
               "negative": ("-1", 1)}


@pytest.mark.parametrize("command, case", [
    (command, case) for command in ("train", "extract", "detect") for case in BAD_ID_TAGS
    if command == "train" or BAD_ID_TAGS[case][0].startswith("0x")])
def test_vocabulary_id_that_is_no_can_id_is_an_input_error(tmp_path, capsys, detect_inputs,
                                                           command, case):
    log, doc = detect_inputs
    tag, column = BAD_ID_TAGS[case]
    out = tmp_path / "out"
    if command == "train":
        lines = log.with_name("features.csv").read_text().splitlines(keepends=True)
        old = lines[0].split(",")[column].removeprefix("f_")
        lines[0] = lines[0].replace(f"_{old},", f"_{tag},")
        source = tmp_path / "features.csv"
        source.write_text("".join(lines))
        argv = ["train", "--features", source, "--out", out]
    else:
        spec = dict(doc["extraction"])
        spec["ids"] = spec["ids"][:-1] + [tag]
        if command == "extract":
            source = tmp_path / "vocab.json"
            source.write_text(json.dumps(spec))
            argv = ["extract", "--in", log, "--vocab", source, "--out", out]
        else:
            source = tmp_path / "model.json"
            source.write_text(json.dumps({**doc, "extraction": spec}))
            argv = ["detect", "--model", source, "--in", log]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and err.count("error:") == 1, err
    assert err.startswith("error:") and "CAN id" in err and "Traceback" not in err, err
    assert [p.name for p in tmp_path.iterdir()] == [source.name]


@pytest.mark.parametrize("family", MODEL_FAMILIES)
def test_train_without_hyperparameter_flags_uses_the_fitters_defaults(tmp_path, capsys,
                                                                     detect_inputs, family):
    log, _ = detect_inputs
    feats = log.with_name("features.csv")
    with open(feats, encoding="utf-8") as f:
        X, _, vocab = read_feature_csv(f)
    scaler = fit_scaler(X)
    expected = tmp_path / "expected.json"
    save_model(fit_model(family, apply_scaler(scaler, X), scaler=scaler), str(expected),
               FeatureSpec(vocab))
    model = tmp_path / "model.json"
    assert run(capsys, "train", "--features", feats, "--out", model, "--family", family)[0] == 0
    assert model.read_bytes() == expected.read_bytes()


# a valid value for each hyperparameter that has a flag
HYPERPARAMETER_FLAGS = {"C": ("--c", 1.0), "nu": ("--nu", 0.2), "d": ("--d", 2),
                        "beta": ("--beta", 0.01), "psi": ("--psi", "psi0"),
                        "eta": ("--eta", 0.1), "iterations": ("--iterations", 1),
                        "k_neighbors": ("--k-neighbors", 3), "epsilon": ("--epsilon", 0.01)}


@pytest.mark.parametrize("family", MODEL_FAMILIES)
@pytest.mark.parametrize("key", sorted(set().union(*FAMILY_PARAMS.values()) - {"q_init", "seed"}))
def test_train_takes_exactly_the_hyperparameter_flags_of_its_family(tmp_path, capsys,
                                                                    detect_inputs, family, key):
    log, _ = detect_inputs
    flag, value = HYPERPARAMETER_FLAGS[key]
    model = tmp_path / "model.json"
    code, out, err = run(capsys, "train", "--features", log.with_name("features.csv"),
                         "--out", model, "--family", family, flag, value)
    if key in FAMILY_PARAMS[family]:
        assert code == 0 and model.exists(), err
    else:
        assert code == 2 and out == "" and not model.exists()
        assert f"unknown hyperparameters for {family}: ['{key}']" in err, err


def test_train_rejects_a_config_key_its_family_does_not_take(tmp_path, capsys, detect_inputs):
    log, _ = detect_inputs
    cfg, model = tmp_path / "train.cfg", tmp_path / "model.json"
    cfg.write_text("nu = 0.5\npsi = psi3\n")
    code, _, err = run(capsys, "train", "--config", cfg, "--features",
                       log.with_name("features.csv"), "--out", model, "--family", "svdd")
    assert code == 2 and "unknown hyperparameters for svdd: ['nu', 'psi']" in err, err
    assert not model.exists()


@pytest.mark.parametrize("family", ["svdd", "ssvdd", "esvdd", "gesvdd"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_a_non_finite_c(tmp_path, capsys, detect_inputs, family, value):
    log, _ = detect_inputs
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--features", log.with_name("features.csv"),
                       "--out", model, "--family", family, "--c", value)
    assert code == 2 and err == f"error: C must be finite, got {value}\n"
    assert not model.exists()


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_model_whose_vocabulary_misses_its_dimension_is_an_input_error(tmp_path, capsys,
                                                                       detect_inputs, command):
    log, doc = detect_inputs
    doc = json.loads(json.dumps(doc))
    doc["extraction"]["include_other_bucket"] = False  # 30 columns, the scaler has 33
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    argv = {"eval": ["eval", "--model", model, "--features", log.with_name("features.csv")],
            "detect": ["detect", "--model", model, "--in", log]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "vocabulary dimension 30 does not match model dimension 33" in err, err


def other_bus_features(tmp_path, capsys):
    """Feature CSV and vocabulary file of a bus with ids 0x200..0x290: the
    same 33 columns as the default bus, under other ids."""
    log = tmp_path / "other.csv"
    code, _, _ = run(capsys, "simulate", "--out", log, "--duration", 10.0,
                     "--bus-ids", ",".join(hex(0x200 + 0x10 * k) for k in range(10)),
                     "--bus-periods", ",".join(["0.02"] * 10))
    assert code == 0
    feats, vocab = tmp_path / "other_features.csv", tmp_path / "other_vocab.json"
    assert run(capsys, "extract", "--in", log, "--out", feats, "--save-vocab", vocab)[0] == 0
    return feats, vocab


def test_train_rejects_vocabulary_of_another_bus(tmp_path, capsys, detect_inputs):
    log, _ = detect_inputs
    feats = log.with_name("features.csv")
    _, other_vocab = other_bus_features(tmp_path, capsys)
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--features", feats,
                       "--extraction-config", other_vocab, "--out", model)
    assert code == 2 and err.startswith("error:")
    assert str(feats) in err and str(other_vocab) in err
    assert not model.exists()


def test_eval_rejects_features_of_another_vocabulary(tmp_path, capsys, detect_inputs):
    log, _ = detect_inputs
    model = log.with_name("model.json")
    other_feats, _ = other_bus_features(tmp_path, capsys)
    code, out, err = run(capsys, "eval", "--model", model, "--features", other_feats)
    assert code == 2 and out == "" and err.startswith("error:")
    assert str(model) in err and str(other_feats) in err


def test_train_help_lists_no_extraction_settings(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    assert "--extraction-config" in out
    assert not any(flag in out for flag in ("--window", "--stride", "--stdev-mode"))


# --- solver stalls, deep nesting and settings a command does not take ----------------

def test_train_stalled_solver_is_an_input_error(tmp_path, capsys, detect_inputs, monkeypatch):
    from canoc.models import DualSolverError, api

    def stalled(X, **kwargs):
        raise DualSolverError("no convergence after 7 iterations", residual=1.5e-6)

    monkeypatch.setattr(api, "ssvdd_fit", stalled)
    log, _ = detect_inputs
    model = tmp_path / "model.json"
    code, out, err = run(capsys, "train", "--features", log.with_name("features.csv"),
                         "--out", model, "--family", "ssvdd")
    assert code == 2 and out == "" and not model.exists()
    assert err == ("error: training ssvdd: no convergence after 7 iterations "
                   "(best KKT residual 1.500e-06)\n")


def test_train_on_rows_where_the_dual_solver_stalls_is_an_input_error(tmp_path, capsys):
    # duplicated rows plus 1e-9 noise: the rbf S-SVDD's inner solve runs all
    # of its iterations and stops just above the KKT tolerance
    from canoc.features import IdVocabulary, write_feature_csv
    rng = np.random.default_rng(141)
    X = np.repeat(rng.standard_normal((17, 6)), 3, axis=0) + 1e-9 * rng.standard_normal((51, 6))
    feats, model = tmp_path / "f.csv", tmp_path / "model.json"
    with open(feats, "w", encoding="utf-8", newline="") as f:
        write_feature_csv(f, X, ["normal"] * 51, IdVocabulary((0x100, 0x110), False))
    code, out, err = run(capsys, "train", "--features", feats, "--out", model,
                         "--family", "ssvdd", "--kernel", "rbf", "--d", 3,
                         "--iterations", 20)
    assert code == 2 and out == "" and not model.exists()
    assert re.fullmatch(r"error: training ssvdd: no convergence after 100000 iterations "
                        r"\(best KKT residual \d\.\d{3}e-\d\d\)\n", err), err


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [DEEP, "[" * 990 + "]" * 990], ids=["100000", "990"])
@pytest.mark.parametrize("command", ["detect", "eval", "extract", "train"])
def test_deeply_nested_json_file_is_an_input_error(tmp_path, capsys, detect_inputs,
                                                   command, text):
    log, _ = detect_inputs
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(text)
    feats = log.with_name("features.csv")
    argv = {"detect": ["detect", "--model", path, "--in", log],
            "eval": ["eval", "--model", path, "--features", feats],
            "extract": ["extract", "--in", log, "--vocab", path, "--out", out],
            "train": ["train", "--features", feats, "--extraction-config", path,
                      "--out", out]}[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error:") and err.count("\n") == 1, err
    if text is DEEP:
        assert "is nested too deeply" in err and str(path) in err


@pytest.mark.parametrize("iterations, expected", [(-3, 2), (0, 0)])
def test_train_rejects_negative_iterations(tmp_path, capsys, detect_inputs, iterations,
                                           expected):
    log, _ = detect_inputs
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--features", log.with_name("features.csv"),
                       "--out", model, "--family", "ssvdd", "--iterations", iterations)
    assert code == expected and model.exists() == (expected == 0)
    if expected:
        assert err == "error: iterations must be >= 0, got -3\n"


@pytest.mark.parametrize("kind, flags, field", [
    ("replay", ["--segment", "1:2", "--rate", 50], "rate"),
    ("replay", ["--segment", "1:2", "--payload-len", 3], "payload length"),
    ("zero_id", ["--rate", 50, "--segment", "1:2"], "replay segment"),
    ("zero_id", ["--rate", 50, "--repeat", 4], "repeat"),
    ("random_id", ["--rate", 50, "--segment", "1:2", "--repeat", 4], "replay segment")])
def test_inject_rejects_a_flag_its_kind_does_not_take(tmp_path, capsys, kind, flags, field):
    log, labels = simulate(tmp_path, capsys, duration=5.0)
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, "inject", "--in", log, "--labels", labels, "--out", out,
                            "--kind", kind, "--start", 2, "--end", 3, *flags)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith(f"error: {kind} takes no ") and field in err, err


@pytest.mark.parametrize("bus_id", ["0x800", "-1"])
def test_a_simulated_bus_id_outside_standard_addressing_is_an_input_error(tmp_path, capsys,
                                                                          bus_id):
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, "simulate", "--out", out, "--bus-ids", bus_id,
                            "--bus-periods", 0.1)
    assert code == 2 and stdout == "" and not out.exists()
    name = "-0x1" if bus_id == "-1" else "0x800"
    assert err == f"error: bus id {name} is outside the standard range 0x0..0x7FF\n", err


def test_an_injected_frame_before_0_s_is_an_input_error_naming_the_window(tmp_path, capsys):
    log, labels = simulate(tmp_path, capsys, duration=5.0)
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, "inject", "--in", log, "--labels", labels, "--out", out,
                            "--kind", "zero_id", "--rate", 100, "--start", -3, "--end", 2)
    assert code == 2 and stdout == "" and not out.exists()
    assert re.fullmatch(r"error: attack window \[-3\.0, 2\.0\) would put a frame at "
                        r"-\d\.\d{6} s, before 0 s\n", err), err


# each asks for an array of 700 PiB or more, past any 64-bit address space, so
# that no machine can allocate it, whatever its overcommit policy
@pytest.mark.parametrize("argv", [
    ["simulate", "--duration", "1e15"],
    ["simulate", "--bus-ids", "0x100", "--bus-periods", "1e-17", "--duration", 1],
    ["inject", "--kind", "zero_id", "--rate", "1e17", "--start", 0, "--end", 4],
    ["inject", "--kind", "replay", "--segment", "1:2", "--start", 2, "--end", 3,
     "--repeat", 10 ** 17]], ids=["duration", "period", "rate", "repeat"])
def test_a_size_too_large_for_memory_is_an_input_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    if argv[0] == "inject":
        log, labels = simulate(tmp_path, capsys, duration=5.0)
        argv = [*argv, "--in", log, "--labels", labels]
    started = time.monotonic()
    code, stdout, err = run(capsys, *argv, "--out", out)
    assert code == 2 and stdout == "" and not out.exists()
    assert re.fullmatch(r"error: Unable to allocate \S+ [PE]iB for an array .*\n", err), err
    assert time.monotonic() - started < 10


@pytest.mark.parametrize("flags", [["--window", 2], ["--stride", 0.5],
                                   ["--stdev-mode", "timestamps"], ["--no-other-bucket"],
                                   ["--window", 2, "--stdev-mode", "timestamps",
                                    "--no-other-bucket"]])
def test_extract_rejects_window_settings_beside_a_vocabulary_file(tmp_path, capsys,
                                                                  detect_inputs, flags):
    log, doc = detect_inputs
    vocab, out = tmp_path / "vocab.json", tmp_path / "f.csv"
    vocab.write_text(json.dumps(doc["extraction"]))
    code, stdout, err = run(capsys, "extract", "--in", log, "--vocab", vocab, "--out", out,
                            *flags)
    assert code == 2 and stdout == "" and not out.exists()
    given = ", ".join(str(flag) for flag in flags if str(flag).startswith("--"))
    assert err == (f"error: vocabulary file {vocab} fixes the extraction settings; "
                   f"drop {given}\n"), err


@pytest.mark.parametrize("read_bytes", [30, 1 << 18], ids=["a batch per row", "one batch"])
def test_labels_follow_their_frames_in_an_unsorted_log(tmp_path, capsys, read_bytes):
    # the replay frame is the first row but the last frame: it lies in window 1
    log, labels = tmp_path / "log.csv", tmp_path / "log.labels.csv"
    log.write_text("timestamp,id,dlc,payload\n1.5,0x100,0,\n0.1,0x200,0,\n1.2,0x200,0,\n")
    labels.write_text("label\nreplay\nnormal\nnormal\n")
    feats, attacked = tmp_path / "f.csv", tmp_path / "attacked.csv"
    with mock.patch.object(canlog, "READ_BYTES", read_bytes):
        joined = LabeledLog(canlog.join_logs(list(iter_labeled(str(log), str(labels)))))
        assert joined.frame_labels == ("normal", "normal", "replay")
        code, _, err = run(capsys, "extract", "--in", log, "--labels", labels, "--out", feats)
        assert code == 0, err
        assert [row.split(",")[0] for row in feats.read_text().splitlines()[1:]] == [
            "normal", "replay"]
        code, _, err = run(capsys, "inject", "--in", log, "--labels", labels, "--out", attacked,
                           "--kind", "zero_id", "--rate", 1, "--start", 0.2, "--end", 0.201)
        assert code == 0, err
    assert Path(str(attacked) + ".labels.csv").read_text() == "label\nnormal\nnormal\nreplay\n"


def test_train_rejects_an_rbf_sigma_whose_inverse_overflows(tmp_path, capsys, detect_inputs):
    # 2 * 1e-160**2 is subnormal: nonzero, but 1 / (2 sigma**2) overflows
    features = detect_inputs[0].with_name("features.csv")
    model = tmp_path / "model.json"
    code, out, err = run(capsys, "train", "--features", features, "--out", model,
                         "--kernel", "rbf", "--sigma", "1e-160")
    assert (code, out) == (2, "") and not model.exists()
    assert err == ("error: sigma 1e-160 is out of range: 1 / (2 * sigma**2) overflows "
                   "or underflows to 0\n")


def test_train_takes_an_rbf_sigma_whose_exponents_overflow(tmp_path, capsys, detect_inputs):
    # 2 * 1e-154**2 is a normal double; the gram's off-diagonal exponents overflow to -inf
    features = detect_inputs[0].with_name("features.csv")
    model = tmp_path / "model.json"
    code, out, err = run(capsys, "train", "--features", features, "--out", model,
                         "--kernel", "rbf", "--sigma", "1e-154")
    assert (code, err) == (0, "") and model.exists()


@pytest.mark.parametrize("cell", [lambda k: 1e200 * (1 + k % 3), lambda k: 1.7e308 * (k % 2)],
                         ids=["spread overflows", "mean overflows"])
def test_train_rejects_a_feature_column_beyond_the_float_range(tmp_path, capsys,
                                                               detect_inputs, cell):
    source = detect_inputs[0].with_name("features.csv")
    X, labels, vocab = read_feature_csv(source.read_text().splitlines(keepends=True))
    X[:, 0] = [cell(k) for k in range(len(X))]
    features, model = tmp_path / "features.csv", tmp_path / "model.json"
    with open(features, "w", encoding="utf-8", newline="") as f:
        write_feature_csv(f, X, labels, vocab)
    code, out, err = run(capsys, "train", "--features", features, "--out", model)
    assert (code, out) == (2, "") and not model.exists()
    assert err == (f"error: feature file {features}: column 'f_0x100': the mean or spread "
                   "of its values is beyond the float range\n")


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_a_row_scoring_beyond_the_float_range_is_an_input_error_naming_it(
        tmp_path, capsys, detect_inputs, command):
    # a scale of 1e-300 sends each row whose first feature is off the model's
    # mean beyond the float range; the mean is the first row's value
    log, doc = detect_inputs
    source = log.with_name("features.csv")
    X, labels, vocab = read_feature_csv(source.read_text().splitlines(keepends=True))
    row = int(np.flatnonzero(X[:, 0] != X[0, 0])[0])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    verdicts = run(capsys, "detect", "--model", model, "--in", log)[1].splitlines()
    doc = json.loads(json.dumps(doc))
    doc["scaler"]["mean"][0], doc["scaler"]["stdev"][0] = X[0, 0], 1e-300
    model.write_text(json.dumps(doc))
    features = tmp_path / "features.csv"
    with open(features, "w", encoding="utf-8", newline="") as f:
        write_feature_csv(f, X, labels[:-1] + ["zero_id"], vocab)
    argv, where = {
        "eval": (["--features", features], f"feature file {features}: feature row {row + 1}"),
        "detect": (["--in", log],
                   f"input log {log}: the window at {verdicts[row].split(',')[0]}")}[command]
    code, out, err = run(capsys, command, "--model", model, *argv)
    assert (code, out, err) == (2, "", f"error: {where} scores beyond the float range\n")


def test_inject_refuses_an_output_that_it_reads_or_standard_input(tmp_path, capsys):
    log, labels = simulate(tmp_path, capsys, duration=5.0)
    before = log.read_bytes(), labels.read_bytes()
    attack = ["--kind", "zero_id", "--rate", 50, "--start", 1, "--end", 2]
    code, out, err = run(capsys, "inject", "--in", log, "--labels", labels, "--out", log, *attack)
    assert (code, out, err) == (2, "", f"error: output file {log} is also an input of inject\n")
    code, out, err = run(capsys, "inject", "--in", log, "--labels", labels,
                         "--out", tmp_path / "out.csv", "--labels-out", labels, *attack)
    assert (code, out) == (2, "") and "is also an input of inject" in err
    code, out, err = run(capsys, "inject", "--in", "-", "--out", tmp_path / "out.csv", *attack)
    assert (code, out) == (2, "") and "give a file, not -" in err
    assert (log.read_bytes(), labels.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [log.name, labels.name]


def test_a_label_error_after_the_first_batch_leaves_no_output(tmp_path, capsys):
    log, labels = simulate(tmp_path, capsys, duration=30.0)
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join(lines[:-1]))  # one label short
    attacked = tmp_path / "attacked.csv"
    code, out, err = run(capsys, "inject", "--in", log, "--labels", labels, "--out", attacked,
                         "--kind", "zero_id", "--rate", 50, "--start", 1, "--end", 2)
    assert (code, out) == (2, "")
    assert err == f"error: label file {labels}: one label per frame required\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [log.name, labels.name]
