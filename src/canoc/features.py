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

import math
import re
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .canlog import CanLog, FrameView

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


@dataclass(frozen=True)
class FeatureSpec:
    """Everything feature extraction depends on besides the log: a model
    only scores features extracted with the spec it was trained on."""

    vocab: IdVocabulary
    window: float = 1.0
    stride: float = 1.0
    stdev_mode: str = "gaps"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be finite and > 0, got {self.window!r}")
        if not (math.isfinite(self.stride) and self.stride > 0):
            raise ValueError(f"stride must be finite and > 0, got {self.stride!r}")
        if self.stdev_mode not in STDEV_MODES:
            raise ValueError(f"stdev_mode must be one of {STDEV_MODES}, "
                             f"got {self.stdev_mode!r}")


def build_vocabulary(log: CanLog, include_other_bucket: bool = True) -> IdVocabulary:
    """Collect the sorted distinct arbitration IDs of a (training) log."""
    if not len(log):
        raise ValueError("cannot build a vocabulary from an empty log")
    return IdVocabulary(tuple(np.unique(log.ids).tolist()), include_other_bucket)


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
    """A [start, start+length) slice of a log. ``frames`` is a view into the
    log; a sequence of frames given here becomes one through
    :meth:`CanLog.from_frames`. ``partial`` marks a trailing window not fully
    covered by the observed time span."""

    start: float
    length: float
    frames: FrameView
    partial: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.frames, FrameView):
            object.__setattr__(self, "frames", CanLog.from_frames(self.frames).frames)


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
    if not len(log):
        return []

    t_first, t_last = log.span
    count = int(np.floor((t_last - t_first) / stride)) + 1
    # per-window boundaries come from one shared grid so that, for tumbling
    # windows, consecutive windows meet at the exact same float and every
    # frame lands in exactly one of them
    grid = t_first + np.arange(count + 1) * stride
    starts = grid[:count][grid[:count] <= t_last]
    ends = grid[1:starts.size + 1] if stride == length else starts + length
    lo = np.searchsorted(log.times, starts, side="left").tolist()
    hi = np.searchsorted(log.times, ends, side="left").tolist()
    frames = log.frames
    return [Window(start=start, length=length, frames=frames[a:b],
                   partial=start + length > t_last)
            for start, a, b in zip(starts.tolist(), lo, hi)]


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """One window's feature values."""

    values: np.ndarray


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


def _window_features(log: CanLog, length: float, vocab_ids: np.ndarray,
                     include_other_bucket: bool, stdev_mode: str) -> np.ndarray:
    """Feature values of one window's frames.

    A stable argsort groups the frames by vocabulary slot (the "other"
    bucket last) and keeps each slot's timestamps in log order, so every
    slot's statistics run on a contiguous view holding the same values, in
    the same order, as a per-ID mask would select. Per-slot ``mean`` and
    ``std`` keep numpy's pairwise summation; ``np.add.reduceat`` sums
    sequentially and rounds differently, which would change feature-CSV
    bytes.
    """
    pos = np.searchsorted(vocab_ids, log.ids)
    known = vocab_ids[np.minimum(pos, vocab_ids.size - 1)] == log.ids
    slots = np.where(known, pos, vocab_ids.size)
    order = np.argsort(slots, kind="stable")
    bounds = np.searchsorted(slots[order], np.arange(vocab_ids.size + 2)).tolist()
    grouped = log.times[order]
    used = vocab_ids.size + (1 if include_other_bucket else 0)
    values = np.empty(3 * used)
    for slot in range(used):
        values[3 * slot:3 * slot + 3] = _gap_stats(grouped[bounds[slot]:bounds[slot + 1]],
                                                   length, stdev_mode)
    return values


def _check_extraction(length: float, stdev_mode: str) -> None:
    if length <= 0:
        raise ValueError("window length must be > 0")
    if stdev_mode not in STDEV_MODES:
        raise ValueError(f"stdev_mode must be one of {STDEV_MODES}")


def extract_features(window: Window, vocab: IdVocabulary,
                     stdev_mode: str = "gaps") -> FeatureVector:
    """Compute the per-ID timing triples for one window.

    Layout is ``[f(id_1), dt(id_1), s(id_1), f(id_2), ...]`` in vocabulary
    order, with the pooled "other" bucket last when enabled.
    """
    _check_extraction(window.length, stdev_mode)
    return FeatureVector(_window_features(window.frames.log, window.length,
                                          np.array(vocab.ids, dtype=np.int64),
                                          vocab.include_other_bucket, stdev_mode))


def extract_matrix(windows: Sequence[Window], vocab: IdVocabulary,
                   stdev_mode: str = "gaps",
                   labels: Sequence[str] | None = None) -> tuple[np.ndarray, list[str]]:
    """Feature matrix (one row per window) plus per-row labels."""
    if labels is None:
        labels = [LABEL_NORMAL] * len(windows)
    elif len(labels) != len(windows):
        raise ValueError("labels length must match windows")
    vocab_ids = np.array(vocab.ids, dtype=np.int64)
    rows = np.empty((len(windows), vocab.dimension))
    for k, window in enumerate(windows):
        _check_extraction(window.length, stdev_mode)
        rows[k] = _window_features(window.frames.log, window.length, vocab_ids,
                                   vocab.include_other_bucket, stdev_mode)
    return rows, list(labels)


@dataclass(frozen=True, eq=False)
class Scaler:
    """Column standardization fitted on training (normal) rows only."""

    mean: np.ndarray
    stdev: np.ndarray  # floored, always > 0


SCALER_FLOOR = 1e-8


def fit_scaler(X: np.ndarray) -> Scaler:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("scaler needs a non-empty 2-d matrix")
    return Scaler(mean=X.mean(axis=0), stdev=np.maximum(X.std(axis=0), SCALER_FLOOR))


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


SPEC_KEYS = ("ids", "include_other_bucket", "window", "stride", "stdev_mode")


def spec_to_dict(spec: FeatureSpec) -> dict:
    """The flat JSON form of a spec: the vocabulary file, and the model
    file's ``extraction`` block."""
    return {"ids": [f"0x{i:X}" for i in spec.vocab.ids],
            "include_other_bucket": spec.vocab.include_other_bucket,
            "window": spec.window, "stride": spec.stride,
            "stdev_mode": spec.stdev_mode}


def spec_from_dict(doc, where: str) -> FeatureSpec:
    """Inverse of :func:`spec_to_dict`; ``where`` names the document in the
    ``ValueError`` raised for a malformed field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object")
    missing = [key for key in SPEC_KEYS if key not in doc]
    unknown = sorted(set(doc) - set(SPEC_KEYS))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")
    if missing:
        raise ValueError(f"{where} is missing {missing}")
    ids = doc["ids"]
    if not (isinstance(ids, list)
            and all(isinstance(i, str) and re.fullmatch("0x[0-9A-Fa-f]+", i) for i in ids)):
        raise ValueError(f"{where}: ids must be a list of 0x-hex strings")
    if not isinstance(doc["include_other_bucket"], bool):
        raise ValueError(f"{where}: include_other_bucket must be true or false")
    for key in ("window", "stride"):
        value = doc[key]
        # the magnitude test also catches an integer too large for a float
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or abs(value) > sys.float_info.max):
            raise ValueError(f"{where}: {key} must be a finite number")
    try:
        vocab = IdVocabulary(tuple(int(i, 16) for i in ids), doc["include_other_bucket"])
        return FeatureSpec(vocab, float(doc["window"]), float(doc["stride"]),
                           doc["stdev_mode"])
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
