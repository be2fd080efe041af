import json
import time
from pathlib import Path

import pytest

from canoc.cli import main
from canoc.features import FeatureSpec, apply_scaler, fit_scaler, read_feature_csv
from canoc.models import MODEL_FAMILIES, fit_model, save_model


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
    ("0.0,0x100,\u0663,AABBCC", "normal", "invalid dlc"),
    ("0.0,0x100,0_3,AABBCC", "normal", "invalid dlc"),
    ("0.0,0x100,3,AABBCC", "zero_id,x", "line 2"),
], ids=["dlc non-ASCII digit", "dlc underscore", "label with comma"])
def test_extract_rejects_malformed_log_or_labels(tmp_path, capsys, log_row, label,
                                                  expected):
    log, labels = tmp_path / "log.csv", tmp_path / "log.labels.csv"
    log.write_text(f"timestamp,id,dlc,payload\n{log_row}\n", encoding="utf-8")
    labels.write_text(f"label\n{label}\n", encoding="utf-8")
    feats = tmp_path / "f.csv"
    code, _, err = run(capsys, "extract", "--in", log, "--labels", labels, "--out", feats)
    assert code == 2 and err.startswith("error:") and expected in err, err
    assert not feats.exists()


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


def test_train_rejects_non_finite_feature_cell(tmp_path, capsys):
    log, _ = simulate(tmp_path, capsys, duration=10.0)
    feats = tmp_path / "features.csv"
    run(capsys, "extract", "--in", log, "--out", feats)
    lines = feats.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = "nan"
    lines[3] = ",".join(cells)
    feats.write_text("\n".join(lines) + "\n")
    header = lines[0].split(",")
    code, _, err = run(capsys, "train", "--features", feats, "--out", tmp_path / "m.json")
    assert code == 2
    assert err.startswith("error:") and f"line 4, column '{header[2]}'" in err


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


@pytest.mark.parametrize("where, expected", [("header", "malformed header row"),
                                             ("data", "row 2")])
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
    assert code == 2 and stdout == "" and err.startswith("error:") and expected in err, err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "model.json"]


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
