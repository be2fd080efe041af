"""Per-ID timing features over fixed windows of CAN traffic.

For each vocabulary ID appearing ``j >= 2`` times in a window at times
``t_1..t_j`` (log order) the window contributes the triple

* mean consecutive gap ``dt = np.mean(np.diff(t))``: the ``j - 1`` gaps
  ``t_{i+1} - t_i`` summed in numpy's pairwise order, divided by ``j - 1``
  and floored at ``MIN_MEAN_GAP``. In exact arithmetic this is
  ``(t_j - t_1) / (j - 1)``; as floats the two can differ in the last bits;
* frequency ``f = 1 / dt``;
* gap spread ``s = np.std(np.diff(t))`` (``np.std(t)`` with
  ``stdev_mode="timestamps"``): the unfloored mean, each value's deviation
  from it squared, those squares summed pairwise and divided by their
  count, then the square root.

IDs absent or seen once take the convention ``(f, dt, s) = (0, length, 0)``.
Features depend only on timestamps and IDs, never on payload bytes. An
optional "other" bucket pools every non-vocabulary frame into one extra
pseudo-ID so foreign-ID traffic stays visible.

:func:`extract_matrix` computes many windows at once as array operations,
with every sum in ``np.add.reduce``'s order (:func:`_pairwise_sums`), so
each value is bit-identical to the numpy expressions above.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .canlog import CAN_EFF_MAX, LABEL_NORMAL, CanLog, LateFrameError, join_logs

LABEL_RANDOM_ID = "random_id"
LABEL_ZERO_ID = "zero_id"
LABEL_REPLAY = "replay"

OTHER_TAG = "other"

# keeps f finite if identical timestamps ever collapse a window's gap mean
MIN_MEAN_GAP = 1e-9

STDEV_MODES = ("gaps", "timestamps")

# an id as feature_names and spec_to_dict spell it, and the only form read back
_HEX_ID_RE = re.compile("0x[0-9A-Fa-f]+")


@dataclass(frozen=True)
class IdVocabulary:
    """Ordered set of CAN ids (``0..CAN_EFF_MAX``) defining the feature layout."""

    ids: tuple[int, ...]
    include_other_bucket: bool = True

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.ids)
        object.__setattr__(self, "ids", ids)
        if not ids:
            raise ValueError("vocabulary must contain at least one id")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("vocabulary ids must be strictly increasing")
        if not 0 <= ids[0] <= ids[-1] <= CAN_EFF_MAX:
            raise ValueError(f"vocabulary ids must be CAN ids in 0x0..0x{CAN_EFF_MAX:X}")

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


def _check_span(name: str, value: float) -> None:
    """The one rule for a window length or stride."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class FeatureSpec:
    """Everything feature extraction depends on besides the log: a model
    only scores features extracted with the spec it was trained on. The
    stride defaults to the window length, as in :func:`segment_windows`."""

    vocab: IdVocabulary
    window: float = 1.0
    stride: float | None = None
    stdev_mode: str = "gaps"

    def __post_init__(self) -> None:
        if self.stride is None:
            object.__setattr__(self, "stride", self.window)
        _check_span("window", self.window)
        _check_span("stride", self.stride)
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
    :meth:`IdVocabulary.feature_names`); an id tag is ``0x``-hex."""
    if len(names) % 3:
        raise ValueError("feature columns must come in (f, dt, sd) triples")
    ids = []
    other = False
    for k in range(0, len(names), 3):
        triple = names[k:k + 3]
        prefixes = [n.partition("_")[0] for n in triple]
        tags = {n.partition("_")[2] for n in triple}
        if prefixes != ["f", "dt", "sd"] or len(tags) != 1:
            raise ValueError(f"malformed feature triple {triple}")
        tag = tags.pop()
        if tag == OTHER_TAG:
            other = True
            if k + 3 != len(names):
                raise ValueError("'other' bucket must be the last triple")
        elif _HEX_ID_RE.fullmatch(tag):
            ids.append(int(tag, 16))
        else:
            raise ValueError(f"feature column tag {tag!r} is not a 0x-hex CAN id")
    return IdVocabulary(tuple(ids), include_other_bucket=other)


@dataclass(frozen=True)
class Window:
    """A [start, start+length) slice of a log. ``frames`` is a row view of
    the log, with its labels; a sequence of frames given here becomes a log through
    :meth:`CanLog.from_frames`. ``partial`` marks a trailing window not fully
    covered by the observed time span."""

    start: float
    length: float
    frames: CanLog
    partial: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.frames, CanLog):
            object.__setattr__(self, "frames", CanLog.from_frames(self.frames))


# the most windows segment_windows builds: a Window costs about 0.9 KB and
# 10 us, so this many take about 1 GB and 10 s (a day of traffic at a 0.1 s
# stride is 864,000 windows)
MAX_WINDOWS = 1 << 20


def _window_count(t_first: float, t_last: float, stride: float) -> int:
    """How many grid points ``t_first + k * stride`` the span needs: one past
    the last that is at most ``t_last``, or one more when the rounded-down
    quotient missed a grid point. Raises past ``MAX_WINDOWS``."""
    count = np.floor((t_last - t_first) / stride) + 1
    if t_first + count * stride <= t_last:  # the quotient rounded down past a grid point
        count += 1
    if count > MAX_WINDOWS:
        raise ValueError(f"a {t_last - t_first:g} s log at a {stride:g} s stride "
                         f"needs {count:.0f} windows, more than {MAX_WINDOWS}")
    return int(count)


def _cut(log: CanLog, grid: np.ndarray, length: float, stride: float,
         t_last: float) -> list[Window]:
    """The windows that start at ``grid[:-1]``; ``grid[-1]`` is the next
    grid point, where a tumbling window ends."""
    starts = grid[:-1]
    # for tumbling windows the ends are the next grid points, so consecutive
    # windows meet at the exact same float and every frame lands in one
    ends = grid[1:] if stride == length else starts + length
    lo = np.searchsorted(log.times, starts, side="left").tolist()
    hi = np.searchsorted(log.times, ends, side="left").tolist()
    return [Window(start=start, length=length, frames=log[a:b],
                   partial=start + length > t_last)
            for start, a, b in zip(starts.tolist(), lo, hi)]


def iter_windows(batches: Iterable[CanLog], length: float,
                 stride: float | None = None) -> Iterator[list[Window]]:
    """The windows of :func:`segment_windows` over a log read as
    consecutive time-sorted batches in file order: after each batch, the
    windows it completed, and after the last batch, the rest.

    Window k starts at ``t_first + k * stride`` (``t_first`` the earliest
    frame) and is complete once a frame at or past both the next grid point
    and its own end has been read. The frames kept between batches are those
    of the windows not yet complete. A frame earlier than the end of a
    window already yielded raises :class:`LateFrameError`; it is thrown
    into ``batches`` first when that is a generator, so that a reader can
    name its row. Frames out of order before that are sorted as in a whole
    log, so the windows equal those of the joined batches. The
    ``MAX_WINDOWS`` check runs on the span read so far.
    """
    _check_span("window", length)
    if stride is None:
        stride = length
    _check_span("stride", stride)
    batches = iter(batches)
    log = None  # the frames from the start of the next window on
    k = 0  # the next window
    floor = -math.inf  # the end of the last window yielded
    for batch in batches:
        if not len(batch):
            continue
        if batch.times[0] < floor:
            late = LateFrameError(float(batch.times[0]), floor)
            if hasattr(batches, "throw"):
                batches.throw(late)
            raise late
        log = batch if log is None else join_logs([log, batch])
        if k == 0:
            t_first = float(log.times[0])
        t_last = float(log.times[-1])
        grid = t_first + np.arange(k, _window_count(t_first, t_last, stride) + 1) * stride
        done = int(np.count_nonzero(np.maximum(grid[1:], grid[:-1] + length) <= t_last))
        if done:
            windows = _cut(log, grid[:done + 1], length, stride, t_last)
            yield windows
            k += done
            floor = windows[-1].start + length if stride != length else float(grid[done])
            log = log[int(np.searchsorted(log.times, grid[done], side="left")):]
    if log is not None:
        grid = t_first + np.arange(k, _window_count(t_first, t_last, stride) + 1) * stride
        rest = int(np.count_nonzero(grid[:-1] <= t_last))
        if rest:
            yield _cut(log, grid[:rest + 1], length, stride, t_last)


def segment_windows(log: CanLog, length: float, stride: float | None = None) -> list[Window]:
    """Tile the log's time span with fixed windows.

    With the default ``stride == length`` the windows are non-overlapping
    and every frame lands in exactly one of them; a smaller stride yields
    sliding windows. The trailing window is kept and flagged partial.
    Raises when the span needs more than ``MAX_WINDOWS`` windows.
    """
    return [window for windows in iter_windows([log], length, stride) for window in windows]


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """One window's feature values."""

    values: np.ndarray


# rows per block of the all-window pass, counting each window's frames and
# its (window, slot) pairs; bounds the block's temporary arrays
BLOCK_ROWS = 1 << 14


def _pairwise_sums(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x[s:s + n])`` for every segment, bit for bit.

    The segments of each length are stacked as the rows of one C-contiguous
    array; numpy sums each row in the same pairwise order as the 1-d slice.
    """
    out = np.zeros(starts.size)
    for n in np.unique(lengths).tolist():
        if n:
            at = lengths == n
            out[at] = np.add.reduce(x[starts[at, None] + np.arange(n)], axis=1)
    return out


def _mean_std(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each non-empty segment's ``np.mean`` and ``np.std``, by numpy's own
    steps: the sum over the count, ``x - mean``, ``d * d``, the sum over the
    count and ``sqrt``."""
    mean = _pairwise_sums(x, starts, lengths) / lengths
    dev = x - np.repeat(mean, lengths)
    return mean, np.sqrt(_pairwise_sums(dev * dev, starts, lengths) / lengths)


def _grouped(windows: Sequence[Window], vocab_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The windows' frame times and (window, vocabulary slot) keys, sorted
    stably by key; the "other" slot is ``len(vocab_ids)``. Each key's run
    holds that slot's timestamps in log order: the same values, in the same
    order, as a per-ID mask would select."""
    ids = np.concatenate([w.frames.ids for w in windows])
    pos = np.searchsorted(vocab_ids, ids)
    known = vocab_ids[np.minimum(pos, vocab_ids.size - 1)] == ids
    width = vocab_ids.size + 1
    key = (np.where(known, pos, vocab_ids.size)
           + width * np.repeat(np.arange(len(windows)), [len(w.frames) for w in windows]))
    order = np.argsort(key, kind="stable")
    return np.concatenate([w.frames.times for w in windows])[order], key[order]


def _block_features(windows: Sequence[Window], vocab: IdVocabulary,
                    stdev_mode: str) -> np.ndarray:
    """Feature rows of consecutive windows, computed together from their
    frames grouped by (window, slot). ``np.diff`` over the grouped times,
    less the differences that cross a group's edge, leaves each group's
    gaps."""
    vocab_ids = np.array(vocab.ids, dtype=np.int64)
    times, key = _grouped(windows, vocab_ids)
    counts = np.bincount(key, minlength=(vocab_ids.size + 1) * len(windows))
    repeated = counts >= 2
    gaps = np.diff(times)[key[1:] == key[:-1]]
    gap_counts = counts[repeated] - 1
    mean_gap, sd = _mean_std(gaps, np.cumsum(gap_counts) - gap_counts, gap_counts)
    if stdev_mode == "timestamps":
        n = counts[repeated]
        _, sd = _mean_std(times[repeated[key]], np.cumsum(n) - n, n)
    dt = np.maximum(mean_gap, MIN_MEAN_GAP)
    triples = np.zeros((counts.size, 3))
    triples[:, 1] = np.repeat([float(w.length) for w in windows], vocab_ids.size + 1)
    triples[repeated] = np.stack([1.0 / dt, dt, sd], axis=1)
    return triples.reshape(len(windows), -1)[:, :vocab.dimension]


def _blocks(windows: Sequence[Window], width: int) -> Iterable[tuple[int, int]]:
    """``(lo, hi)`` runs of consecutive windows holding at most
    ``BLOCK_ROWS`` rows together, a window being its frames plus ``width``
    slots, so that empty windows count too; a larger window forms a run
    alone."""
    lo = rows = 0
    for k, window in enumerate(windows):
        size = len(window.frames) + width
        if rows + size > BLOCK_ROWS and k > lo:
            yield lo, k
            lo, rows = k, 0
        rows += size
    if lo < len(windows):
        yield lo, len(windows)


def extract_features(window: Window, vocab: IdVocabulary,
                     stdev_mode: str = "gaps") -> FeatureVector:
    """Compute the per-ID timing triples for one window: row 0 of
    :func:`extract_matrix` over ``[window]``.

    Layout is ``[f(id_1), dt(id_1), s(id_1), f(id_2), ...]`` in vocabulary
    order, with the pooled "other" bucket last when enabled.
    """
    X, _ = extract_matrix([window], vocab, stdev_mode)
    return FeatureVector(X[0])


def extract_matrix(windows: Sequence[Window], vocab: IdVocabulary,
                   stdev_mode: str = "gaps",
                   labels: Sequence[str] | None = None) -> tuple[np.ndarray, list[str]]:
    """Feature matrix (one row per window) plus per-row labels.

    Windows are featurized in blocks of about ``BLOCK_ROWS`` frames and
    (window, slot) pairs, each block as array operations with no per-window
    loop.
    """
    if labels is None:
        labels = [LABEL_NORMAL] * len(windows)
    elif len(labels) != len(windows):
        raise ValueError("labels length must match windows")
    if stdev_mode not in STDEV_MODES:
        raise ValueError(f"stdev_mode must be one of {STDEV_MODES}")
    for length in dict.fromkeys(w.length for w in windows):
        _check_span("window", length)
    rows = np.empty((len(windows), vocab.dimension))
    for lo, hi in _blocks(windows, len(vocab.ids) + 1):
        rows[lo:hi] = _block_features(windows[lo:hi], vocab, stdev_mode)
    return rows, list(labels)


def relayout(X: np.ndarray, vocab: IdVocabulary, target: IdVocabulary,
             length: float) -> np.ndarray:
    """Feature rows of ``length``-second windows, extracted against
    ``vocab``, laid out for ``target``, a vocabulary holding every id of
    ``vocab``. A slot's triple depends only on its own frames, so each slot
    that ``vocab`` lacks, the other bucket included, takes the empty-slot
    triple ``(0, length, 0)``: the rows are exact when no frame of those
    windows falls in such a slot."""
    rows = np.zeros((X.shape[0], target.dimension))
    rows[:, 1::3] = length
    slots = np.searchsorted(target.ids, vocab.ids)
    if vocab.include_other_bucket:
        slots = np.append(slots, len(target.ids))
    rows[:, (3 * slots[:, None] + np.arange(3)).ravel()] = X
    return rows


@dataclass(frozen=True, eq=False)
class Scaler:
    """Column standardization fitted on training (normal) rows only."""

    mean: np.ndarray
    stdev: np.ndarray  # floored, always > 0


SCALER_FLOOR = 1e-8


def fit_scaler(X: np.ndarray, names: Sequence[str] | None = None) -> Scaler:
    """The scaler of ``X``'s columns. A column whose mean or spread is
    beyond the float range is an error, naming it from ``names`` when given."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("scaler needs a non-empty 2-d matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stdev = X.mean(axis=0), X.std(axis=0)
    bad = ~(np.isfinite(mean) & np.isfinite(stdev))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"column {names[k] if names else k!r}: the mean or spread of its "
                         "values is beyond the float range")
    return Scaler(mean=mean, stdev=np.maximum(stdev, SCALER_FLOOR))


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
    """Load a feature CSV, given as its lines, back into (matrix, labels,
    vocabulary). Each row is parsed into its row of the matrix, allocated
    once for every line."""
    lines = list(stream)
    if not lines:
        raise ValueError("no header line")
    header = lines[0].rstrip("\n").split(",")
    if not header or header[0] != "label":
        raise ValueError("first column is not 'label'")
    vocab = vocabulary_from_feature_names(header[1:])
    X, labels = np.empty((len(lines) - 1, vocab.dimension)), []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"row arity mismatch at line {lineno}")
        row = X[len(labels)]
        labels.append(fields[0])
        try:
            row[:] = list(map(float, fields[1:]))
        except ValueError:
            row[:] = math.nan
        if not np.isfinite(row).all():  # the first cell that is not a finite number
            for name, cell in zip(header[1:], fields[1:]):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"line {lineno}, column '{name}': "
                                     f"{cell!r} is not a finite number")
    return X[:len(labels)], labels, vocab


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number that a float holds; the
    magnitude test also rejects an integer too large for a float, NaN and
    the infinities."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@contextlib.contextmanager
def naming(where: str):
    """Prefix ``where``, the input being read, to a ``ValueError`` raised inside."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def read_text(path: str) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, without their ends,
    with ``\\r\\n`` and ``\\r`` read as ``\\n`` as in text mode; a byte that
    is not UTF-8 is a ``ValueError`` naming its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"line {line} is not UTF-8 ({err.reason})") from None
    del data
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # the end of the last line, or an empty file
        lines.pop()
    return lines


def read_json(path: str, where: str):
    """Parse a JSON file. Text that is not UTF-8 or not JSON, and nesting
    too deep for the parser, is a ``ValueError`` naming ``where``."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValueError(f"{where} is nested too deeply") from None
        except ValueError as err:  # json.JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{where}: {err}") from None


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
            and all(isinstance(i, str) and _HEX_ID_RE.fullmatch(i) for i in ids)):
        raise ValueError(f"{where}: ids must be a list of 0x-hex strings")
    if not isinstance(doc["include_other_bucket"], bool):
        raise ValueError(f"{where}: include_other_bucket must be true or false")
    for key in ("window", "stride"):
        if not _is_number(doc[key]):
            raise ValueError(f"{where}: {key} must be a finite number")
    try:
        vocab = IdVocabulary(tuple(int(i, 16) for i in ids), doc["include_other_bucket"])
        return FeatureSpec(vocab, float(doc["window"]), float(doc["stride"]),
                           doc["stdev_mode"])
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
