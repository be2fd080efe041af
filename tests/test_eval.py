import io
from dataclasses import replace

import numpy as np
import pytest

from canoc import SplitSpec, evaluate, gmean, split, svdd_fit, write_report_table


def labeled_rows(rng, n_normal=10, n_attack=5):
    X = np.vstack([rng.normal(0, 1, (n_normal, 3)),
                   rng.normal(50, 1, (n_attack, 3))])
    labels = ["normal"] * n_normal + ["zero_id"] * n_attack
    return X, labels


# --- split ---------------------------------------------------------------------

def test_split_counts(rng):
    X, labels = labeled_rows(rng)
    train, test, test_labels = split(X, labels, SplitSpec(0.7, seed=1))
    assert train.shape[0] == 7
    assert test.shape[0] == 8
    assert test_labels.count("normal") == 3
    assert test_labels.count("zero_id") == 5


def test_split_never_trains_on_attacks(rng):
    X, labels = labeled_rows(rng)
    train, _, _ = split(X, labels, SplitSpec(0.7, seed=2))
    assert (train < 10).all()  # attack rows live at 50


def test_split_deterministic(rng):
    X, labels = labeled_rows(rng)
    a = split(X, labels, SplitSpec(0.7, seed=3))
    b = split(X, labels, SplitSpec(0.7, seed=3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_split_requires_normals():
    with pytest.raises(ValueError, match="normal"):
        split(np.zeros((3, 2)), ["zero_id"] * 3, SplitSpec())
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0)


# --- gmean ------------------------------------------------------------------------

def test_gmean_values():
    assert gmean(5, 5, 0, 0) == 1.0
    assert gmean(0, 5, 0, 5) == 0.0
    assert gmean(9, 8, 2, 1) == pytest.approx(0.848528137423857, rel=1e-12)


def test_gmean_requires_both_classes():
    with pytest.raises(ValueError, match="positive"):
        gmean(0, 5, 1, 0)
    with pytest.raises(ValueError, match="negative"):
        gmean(5, 0, 0, 1)


def test_gmean_monotone():
    base = gmean(6, 8, 2, 4)
    assert gmean(7, 8, 2, 3) > base  # better TPR
    assert gmean(6, 9, 1, 4) > base  # better TNR


# --- evaluate ---------------------------------------------------------------------

def perfect_model(X, labels):
    # C=1 contains every training normal, and the attacks sit 50 sigma out
    normals = X[[lab == "normal" for lab in labels]]
    return svdd_fit(normals, 1.0)


def constant_normal_model(rng):
    model = svdd_fit(rng.normal(0, 1, (40, 3)), 1.0)
    return replace(model, r_squared=1e12)


def test_evaluate_perfect_separator(rng):
    X, labels = labeled_rows(rng, 20, 10)
    report = evaluate(perfect_model(X, labels), X, labels)
    assert report.gmean == 1.0
    assert report.per_attack == {"zero_id": 1.0}
    assert report.model_tag == "svdd-linear"
    assert len(report.config_hash) == 12


def test_evaluate_constant_normal_predictor(rng):
    X, labels = labeled_rows(rng, 20, 10)
    report = evaluate(constant_normal_model(rng), X, labels)
    assert report.tpr == 0.0 and report.gmean == 0.0


def test_evaluate_conserves_counts(rng):
    X, labels = labeled_rows(rng, 12, 9)
    report = evaluate(perfect_model(X, labels), X, labels)
    assert report.tp + report.fn == 9
    assert report.tn + report.fp == 12


def test_evaluate_single_class_rejected(rng):
    X = rng.normal(0, 1, (5, 3))
    model = svdd_fit(rng.normal(0, 1, (10, 3)), 1.0)
    with pytest.raises(ValueError, match="both"):
        evaluate(model, X, ["normal"] * 5)


def test_per_attack_single_attack_equals_overall(rng):
    X, labels = labeled_rows(rng, 15, 6)
    report = evaluate(perfect_model(X, labels), X, labels)
    assert report.per_attack["zero_id"] == report.gmean


def test_per_attack_subsets_use_all_normals(rng):
    X = np.vstack([rng.normal(0, 1, (10, 3)),
                   rng.normal(50, 1, (4, 3)),
                   rng.normal(-50, 1, (2, 3))])
    labels = ["normal"] * 10 + ["zero_id"] * 4 + ["replay"] * 2
    report = evaluate(perfect_model(X, labels), X, labels)
    assert set(report.per_attack) == {"zero_id", "replay"}
    assert report.per_attack["replay"] == 1.0


def test_report_table_shape(rng):
    X, labels = labeled_rows(rng, 10, 5)
    report = evaluate(perfect_model(X, labels), X, labels)
    sink = io.StringIO()
    write_report_table(sink, [report])
    lines = sink.getvalue().splitlines()
    assert lines[0] == "model,normal,random_id,replay,zero_id"
    assert lines[1].startswith("svdd-linear,1.0000")
    assert lines[1].endswith("1.0000")


def test_report_table_has_a_column_per_attack_kind():
    from canoc.evaluate import REPORT_COLUMNS
    from canoc.simulate import ATTACK_KINDS
    assert REPORT_COLUMNS == ("model", "normal", *sorted(ATTACK_KINDS))


def test_report_to_dict_roundtrip(rng):
    X, labels = labeled_rows(rng)
    report = evaluate(perfect_model(X, labels), X, labels)
    d = report.to_dict()
    assert d["gmean"] == report.gmean and d["per_attack"] == report.per_attack
