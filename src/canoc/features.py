"""Per-ID timing features over fixed windows of CAN traffic.

For each vocabulary ID appearing ``j >= 2`` times in a window at times
``t_1..t_j`` the window contributes the triple

* mean consecutive gap ``dt = (t_j - t_1) / (j - 1)``,
* frequency ``f = 1 / dt``,
* gap spread ``s`` = population standard deviation of the ``j - 1`` gaps
  (or of the raw timestamps with ``stdev_mode="timestamps"``).

IDs absent or seen once take the convention ``(f, dt, s) = (0, length, 0)``.
Features depend only on timestamps and IDs, never on payload bytes. An
optional "other" bucket pools every non-vocabulary frame into one extra
pseudo-ID so foreign-ID traffic stays visible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .canlog import CanFrame, CanLog

LABEL_NORMAL = "normal"
LABEL_RANDOM_ID = "random_id"
LABEL_ZERO_ID = "zero_id"
LABEL_REPLAY = "replay"
LABEL_UNKNOWN_ANOMALY = "unknown_anomaly"
LABELS = (LABEL_NORMAL, LABEL_RANDOM_ID, LABEL_ZERO_ID, LABEL_REPLAY,
          LABEL_UNKNOWN_ANOMALY)

ATTACK_LABELS = (LABEL_RANDOM_ID, LABEL_ZERO_ID, LABEL_REPLAY,
                 LABEL_UNKNOWN_ANOMALY)

OTHER_TAG = "other"

# keeps f finite if identical timestamps ever collapse a window's gap mean
MIN_MEAN_GAP = 1e-9

STDEV_MODES = ("gaps", "timestamps")


@dataclass(frozen=True)
class IdVocabulary:
    """Ordered set of arbitration IDs defining the feature layout."""

    ids: tuple[int, ...]
    include_other_bucket: bool = True

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.ids)
        object.__setattr__(self, "ids", ids)
        if not ids:
            raise ValueError("vocabulary must contain at least one id")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("vocabulary ids must be strictly increasing")

    @property
    def dimension(self) -> int:
        return 3 * (len(self.ids) + (1 if self.include_other_bucket else 0))

    def feature_names(self) -> list[str]:
        tags = [f"0x{i:X}" for i in self.ids]
        if self.include_other_bucket:
            tags.append(OTHER_TAG)
        names = []
        for tag in tags:
            names.extend((f"f_{tag}", f"dt_{tag}", f"sd_{tag}"))
        return names


def build_vocabulary(log: CanLog, include_other_bucket: bool = True) -> IdVocabulary:
    """Collect the sorted distinct arbitration IDs of a (training) log."""
    if not log.frames:
        raise ValueError("cannot build a vocabulary from an empty log")
    ids = sorted({frame.can_id for frame in log.frames})
    return IdVocabulary(tuple(ids), include_other_bucket)


def vocabulary_from_feature_names(names: Sequence[str]) -> IdVocabulary:
    """Recover the vocabulary from a feature CSV header (inverse of
    :meth:`IdVocabulary.feature_names`)."""
    if len(names) % 3:
        raise ValueError("feature columns must come in (f, dt, sd) triples")
    ids = []
    other = False
    for k in range(0, len(names), 3):
        triple = names[k:k + 3]
        prefixes = [n.split("_", 1)[0] for n in triple]
        tags = {n.split("_", 1)[1] for n in triple if "_" in n}
        if prefixes != ["f", "dt", "sd"] or len(tags) != 1:
            raise ValueError(f"malformed feature triple {triple}")
        tag = tags.pop()
        if tag == OTHER_TAG:
            other = True
            if k + 3 != len(names):
                raise ValueError("'other' bucket must be the last triple")
        else:
            ids.append(int(tag, 16))
    return IdVocabulary(tuple(ids), include_other_bucket=other)


@dataclass(frozen=True)
class Window:
    """A [start, start+length) slice of a log. ``partial`` marks a trailing
    window not fully covered by the observed time span."""

    start: float
    length: float
    frames: tuple[CanFrame, ...]
    partial: bool = False


def segment_windows(log: CanLog, length: float, stride: float | None = None) -> list[Window]:
    """Tile the log's time span with fixed windows.

    With the default ``stride == length`` the windows are non-overlapping
    and every frame lands in exactly one of them; a smaller stride yields
    sliding windows. The trailing window is kept and flagged partial.
    """
    if length <= 0:
        raise ValueError("window length must be > 0")
    if stride is None:
        stride = length
    if stride <= 0:
        raise ValueError("window stride must be > 0")
    if not log.frames:
        return []

    times = np.array([f.timestamp for f in log.frames])
    t_first, t_last = log.span
    count = int(np.floor((t_last - t_first) / stride)) + 1
    # per-window boundaries come from one shared grid so that, for tumbling
    # windows, consecutive windows meet at the exact same float and every
    # frame lands in exactly one of them
    grid = t_first + np.arange(count + 1) * stride
    cuts = np.searchsorted(times, grid, side="left")
    tumbling = stride == length
    windows = []
    for k in range(count):
        start = float(grid[k])
        if start > t_last:
            break
        if tumbling:
            lo, hi = int(cuts[k]), int(cuts[k + 1])
        else:
            lo = int(cuts[k])
            hi = int(np.searchsorted(times, start + length, side="left"))
        windows.append(Window(start=start, length=length,
                              frames=log.frames[lo:hi],
                              partial=start + length > t_last))
    return windows


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """One window's feature values plus its ground-truth label (eval only)."""

    values: np.ndarray
    label: str = LABEL_NORMAL


def _gap_stats(times: np.ndarray, window_length: float, stdev_mode: str) -> tuple[float, float, float]:
    j = times.size
    if j <= 1:
        return 0.0, float(window_length), 0.0
    gaps = np.diff(times)
    dt = max(float(gaps.mean()), MIN_MEAN_GAP)
    if stdev_mode == "gaps":
        s = float(np.std(gaps))
    else:
        s = float(np.std(times))
    return 1.0 / dt, dt, s


def extract_features(window: Window, vocab: IdVocabulary,
                     stdev_mode: str = "gaps",
                     label: str = LABEL_NORMAL) -> FeatureVector:
    """Compute the per-ID timing triples for one window.

    Layout is ``[f(id_1), dt(id_1), s(id_1), f(id_2), ...]`` in vocabulary
    order, with the pooled "other" bucket last when enabled.
    """
    if window.length <= 0:
        raise ValueError("window length must be > 0")
    if stdev_mode not in STDEV_MODES:
        raise ValueError(f"stdev_mode must be one of {STDEV_MODES}")

    n = len(window.frames)
    times = np.fromiter((f.timestamp for f in window.frames), dtype=float, count=n)
    ids = np.fromiter((f.can_id for f in window.frames), dtype=np.int64, count=n)

    values = np.empty(vocab.dimension)
    for pos, cid in enumerate(vocab.ids):
        values[3 * pos:3 * pos + 3] = _gap_stats(times[ids == cid], window.length,
                                                 stdev_mode)
    if vocab.include_other_bucket:
        mask = ~np.isin(ids, np.array(vocab.ids, dtype=np.int64))
        values[-3:] = _gap_stats(times[mask], window.length, stdev_mode)
    return FeatureVector(values, label)


def extract_matrix(windows: Sequence[Window], vocab: IdVocabulary,
                   stdev_mode: str = "gaps",
                   labels: Sequence[str] | None = None) -> tuple[np.ndarray, list[str]]:
    """Feature matrix (one row per window) plus per-row labels."""
    if labels is not None and len(labels) != len(windows):
        raise ValueError("labels length must match windows")
    rows = np.empty((len(windows), vocab.dimension))
    out_labels = []
    for k, window in enumerate(windows):
        lab = labels[k] if labels is not None else LABEL_NORMAL
        rows[k] = extract_features(window, vocab, stdev_mode, lab).values
        out_labels.append(lab)
    return rows, out_labels


@dataclass(frozen=True, eq=False)
class Scaler:
    """Column standardization fitted on training (normal) rows only."""

    mean: np.ndarray
    stdev: np.ndarray  # floored, always > 0


SCALER_FLOOR = 1e-8


def fit_scaler(X: np.ndarray, floor: float = SCALER_FLOOR) -> Scaler:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("scaler needs a non-empty 2-d matrix")
    return Scaler(mean=X.mean(axis=0), stdev=np.maximum(X.std(axis=0), floor))


def apply_scaler(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != scaler.mean.shape[0]:
        raise ValueError(f"expected {scaler.mean.shape[0]} columns, got {X.shape}")
    return (X - scaler.mean) / scaler.stdev


def write_feature_csv(sink: IO[str], X: np.ndarray, labels: Sequence[str],
                      vocab: IdVocabulary) -> None:
    """Persist a labeled feature matrix; header ``label,f_0x...,dt_0x...,...``."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] != len(labels):
        raise ValueError("labels length must match rows")
    if X.shape[1] != vocab.dimension:
        raise ValueError("matrix width must match vocabulary dimension")
    sink.write(",".join(["label"] + vocab.feature_names()) + "\n")
    for row, label in zip(X, labels):
        sink.write(label + "," + ",".join(repr(float(v)) for v in row) + "\n")


def read_feature_csv(stream: Iterable[str]) -> tuple[np.ndarray, list[str], IdVocabulary]:
    """Load a feature CSV back into (matrix, labels, vocabulary)."""
    lines = iter(stream)
    try:
        header = next(lines).rstrip("\n").split(",")
    except StopIteration:
        raise ValueError("empty feature file") from None
    if not header or header[0] != "label":
        raise ValueError("feature file must start with a 'label' column")
    vocab = vocabulary_from_feature_names(header[1:])
    rows, labels = [], []
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"row arity mismatch at line {lineno}")
        labels.append(fields[0])
        row = []
        for name, cell in zip(header[1:], fields[1:]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"feature file line {lineno}, column '{name}': "
                                 f"{cell!r} is not a finite number")
            row.append(value)
        rows.append(row)
    X = np.array(rows, dtype=float) if rows else np.empty((0, vocab.dimension))
    return X, labels, vocab


def save_vocabulary(vocab: IdVocabulary, path: str,
                    extraction: dict | None = None) -> None:
    """Write the vocabulary (plus optional extraction settings) as JSON."""
    payload: dict = {
        "ids": [f"0x{i:X}" for i in vocab.ids],
        "include_other_bucket": vocab.include_other_bucket,
    }
    if extraction:
        payload["extraction"] = dict(extraction)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_vocabulary(path: str) -> tuple[IdVocabulary, dict]:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    ids = tuple(int(i, 16) if isinstance(i, str) else int(i) for i in payload["ids"])
    vocab = IdVocabulary(ids, bool(payload.get("include_other_bucket", True)))
    return vocab, dict(payload.get("extraction", {}))
