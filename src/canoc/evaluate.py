"""Evaluation harness: one-class split, Gmean and per-attack breakdowns.
Anomaly is the positive class throughout."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import IO, Sequence

import numpy as np

from .features import LABEL_NORMAL
from .models import LABEL_ANOMALY, Detector, config_digest, model_tag, predict
from .simulate import ATTACK_KINDS


@dataclass(frozen=True)
class SplitSpec:
    """70/30-style split; training takes normal rows only (the one-class
    contract), everything else goes to test."""

    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")


def split(X, labels: Sequence[str], spec: SplitSpec = SplitSpec()
          ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Returns (train_X, test_X, test_labels); train rows are all normal."""
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    if X.shape[0] != len(labels):
        raise ValueError("labels length must match rows")
    normal_idx = np.flatnonzero(np.array([lab == LABEL_NORMAL for lab in labels]))
    if normal_idx.size < 2:
        raise ValueError("split needs at least 2 normal rows")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(normal_idx)
    n_train = int(round(normal_idx.size * spec.train_fraction))
    n_train = min(max(n_train, 1), normal_idx.size - 1)
    train_idx = np.sort(perm[:n_train])
    train_set = set(train_idx.tolist())
    test_idx = np.array([i for i in range(X.shape[0]) if i not in train_set])
    return X[train_idx], X[test_idx], [labels[i] for i in test_idx]


def gmean(tp: int, tn: int, fp: int, fn: int) -> float:
    """sqrt(TPR * TNR); raises when either class is empty."""
    if tp + fn == 0:
        raise ValueError("no positive (anomalous) samples: TPR undefined")
    if tn + fp == 0:
        raise ValueError("no negative (normal) samples: TNR undefined")
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    return math.sqrt(tpr * tnr)


@dataclass
class EvalReport:
    """Confusion counts plus Gmean, overall and per attack kind."""

    tp: int
    tn: int
    fp: int
    fn: int
    tpr: float
    tnr: float
    gmean: float
    per_attack: dict[str, float] = field(default_factory=dict)
    model_tag: str = ""
    config_hash: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _confusion(pred_anomaly: np.ndarray, true_anomaly: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(np.sum(pred_anomaly & true_anomaly))
    tn = int(np.sum(~pred_anomaly & ~true_anomaly))
    fp = int(np.sum(pred_anomaly & ~true_anomaly))
    fn = int(np.sum(~pred_anomaly & true_anomaly))
    return tp, tn, fp, fn


def evaluate(model: Detector, X_test, labels: Sequence[str]) -> EvalReport:
    """Score the test set; per-attack Gmeans reuse all normal test rows."""
    X_test = np.asarray(X_test, dtype=float)
    labels = list(labels)
    if X_test.shape[0] != len(labels):
        raise ValueError("labels length must match rows")
    true_anomaly = np.array([lab != LABEL_NORMAL for lab in labels])
    if true_anomaly.all() or not true_anomaly.any():
        raise ValueError("test set must contain both normal and anomalous rows")
    pred_anomaly = predict(model, X_test) == LABEL_ANOMALY
    tp, tn, fp, fn = _confusion(pred_anomaly, true_anomaly)
    per_attack = {}
    for kind in sorted({lab for lab in labels if lab != LABEL_NORMAL}):
        subset = np.array([lab == LABEL_NORMAL or lab == kind for lab in labels])
        per_attack[kind] = gmean(*_confusion(pred_anomaly[subset],
                                             true_anomaly[subset]))
    return EvalReport(tp, tn, fp, fn,
                      tpr=tp / (tp + fn), tnr=tn / (tn + fp),
                      gmean=gmean(tp, tn, fp, fn), per_attack=per_attack,
                      model_tag=model_tag(model), config_hash=config_digest(model))


# paper-shaped report: one row per model variant, one column per attack
REPORT_COLUMNS = ("model", "normal", *sorted(ATTACK_KINDS))


def write_report_table(sink: IO[str], reports: Sequence[EvalReport]) -> None:
    """CSV mirroring the per-attack result tables; "normal" is the Gmean on
    the full mixed test set."""
    sink.write(",".join(REPORT_COLUMNS) + "\n")
    for rpt in reports:
        cells = [rpt.model_tag, f"{rpt.gmean:.4f}"]
        for kind in REPORT_COLUMNS[2:]:
            value = rpt.per_attack.get(kind)
            cells.append("" if value is None else f"{value:.4f}")
        sink.write(",".join(cells) + "\n")
