"""Synthetic CAN traffic and injection attacks for end-to-end testing.

Normal traffic: each simulated ECU transmits at a nominal period with
uniform jitter. Attacks mirror the three DoS-style injections (random-ID
flood, zero-ID flood, replay). Everything is seed-deterministic, and attack
provenance travels in a sidecar label sequence so serialized logs stay
format-pure.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .canlog import (CAN_SFF_MAX, CHUNK_LINES, COLUMNS, MAX_PAYLOAD_BYTES, CanLog, join_logs,
                     load_log, save_log)
from .features import (LABEL_NORMAL, LABEL_RANDOM_ID, LABEL_REPLAY,
                       LABEL_ZERO_ID, Window, naming, read_text)

ATTACK_KINDS = (LABEL_RANDOM_ID, LABEL_ZERO_ID, LABEL_REPLAY)
_FLOOD_KINDS = (LABEL_RANDOM_ID, LABEL_ZERO_ID)

# fixed per-kind rng stream tags; keeps stacked injections independent
_KIND_TAGS = {LABEL_RANDOM_ID: 1, LABEL_ZERO_ID: 2, LABEL_REPLAY: 3}


@dataclass(frozen=True)
class EcuSpec:
    """One periodic transmitter: nominal period with uniform +/- jitter,
    sending 8 random payload bytes per frame."""

    can_id: int
    period: float
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be finite and > 0, got {self.period!r}")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter fraction must be in [0, 1)")


@dataclass(frozen=True)
class BusSpec:
    ids: tuple[EcuSpec, ...]
    duration: float
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and > 0, got {self.duration!r}")
        if not self.ids:
            raise ValueError("bus spec needs at least one id")
        if len({e.can_id for e in self.ids}) != len(self.ids):
            raise ValueError("bus ids must be unique")


# spans the frequency range of real powertrain buses; the acceptance baseline
DEFAULT_PERIODS = (0.010, 0.012, 0.015, 0.020, 0.025, 0.033, 0.050, 0.066,
                   0.080, 0.100)
DEFAULT_JITTER = 0.01


def default_bus(duration: float, seed: int = 0) -> BusSpec:
    """The stock 10-ID synthetic bus used throughout the test suite."""
    ecus = tuple(EcuSpec(0x100 + 0x10 * k, period, DEFAULT_JITTER)
                 for k, period in enumerate(DEFAULT_PERIODS))
    return BusSpec(ecus, duration, seed)


@dataclass(frozen=True)
class AttackScenario:
    """Parameters of one injection applied to a base log.

    ``window`` is the (start, end) activity interval; flood kinds draw
    Poisson arrivals at ``rate`` inside it, replay copies
    ``replay_segment`` to begin at the window start, ``repeat`` times
    back-to-back. ``payload_length`` overrides the per-kind default
    (8 random bytes for random-ID, empty for zero-ID). A field of the
    other kinds must keep its default.
    """

    kind: str
    rate: float | None = None
    window: tuple[float, float] | None = None
    replay_segment: tuple[float, float] | None = None
    repeat: int = 1
    seed: int = 0
    payload_length: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"attack kind must be one of {ATTACK_KINDS}")
        if self.window is None:
            raise ValueError("attack scenario needs a (start, end) window")
        start, end = self.window
        if not (math.isfinite(start) and math.isfinite(end) and end > start):
            raise ValueError(f"attack window must be finite with end > start, "
                             f"got {self.window!r}")
        if self.kind in _FLOOD_KINDS:
            if self.rate is None or not (math.isfinite(self.rate) and self.rate > 0):
                raise ValueError(f"flood attacks need a finite rate > 0, got {self.rate!r}")
            if self.replay_segment is not None or self.repeat != 1:
                raise ValueError(f"{self.kind} takes no replay segment or repeat")
        else:
            if self.rate is not None or self.payload_length is not None:
                raise ValueError("replay takes no rate or payload length")
            if self.replay_segment is None:
                raise ValueError("replay needs a (src_start, src_end) segment")
            s0, s1 = self.replay_segment
            if not (math.isfinite(s0) and math.isfinite(s1) and s1 > s0):
                raise ValueError(f"replay segment must be finite with src_end > src_start, "
                                 f"got {self.replay_segment!r}")
            if self.repeat < 1:
                raise ValueError("replay repeat must be >= 1")
        if self.payload_length is not None and not 0 <= self.payload_length <= 8:
            raise ValueError("payload length must be 0..8")


@dataclass(frozen=True, eq=False)
class LabeledLog:
    """A log plus a parallel per-frame provenance label sequence."""

    log: CanLog
    frame_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frame_labels", tuple(self.frame_labels))
        if len(self.frame_labels) != len(self.log):
            raise ValueError("one label per frame required")


def generate_normal(spec: BusSpec) -> CanLog:
    """Synthesize attack-free traffic; deterministic for a fixed seed."""
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.ids))
    logs = []
    for ecu, stream in zip(spec.ids, streams):
        rng = np.random.default_rng(stream)
        count = int(np.ceil(spec.duration / ecu.period)) + 2
        base = np.arange(count) * ecu.period
        amp = ecu.jitter * ecu.period
        t = base + rng.uniform(-amp, amp, count)
        t = np.maximum(t, 0.0)
        t.sort(kind="stable")
        keep = t < spec.duration
        t = t[keep]
        payload = rng.integers(0, 256, size=(count, MAX_PAYLOAD_BYTES), dtype=np.uint8)
        logs.append(CanLog(t, np.full(t.size, ecu.can_id, dtype=np.int64),
                           np.zeros(t.size, dtype=np.bool_),
                           np.full(t.size, MAX_PAYLOAD_BYTES, dtype=np.uint8), payload[keep]))
    return join_logs(logs)


def _as_labeled(log: CanLog | LabeledLog) -> LabeledLog:
    if isinstance(log, LabeledLog):
        return log
    return LabeledLog(log, (LABEL_NORMAL,) * len(log))


def _check_window_overlap(base: CanLog, start: float, end: float) -> None:
    if not len(base):
        return
    t_first, t_last = base.span
    if end <= t_first or start > t_last:
        raise ValueError(f"attack window [{start}, {end}) lies outside the "
                         f"log span [{t_first}, {t_last}]")


def _merge(base: LabeledLog, added: tuple[np.ndarray, ...], kind: str) -> LabeledLog:
    """Append injected rows (log columns in ``COLUMNS`` order), re-sort
    stably; base rows are never touched."""
    columns = [np.concatenate([getattr(base.log, name), column])
               for name, column in zip(COLUMNS, added)]
    order = np.argsort(columns[0], kind="stable")
    labels = base.frame_labels + (kind,) * added[0].size
    return LabeledLog(CanLog(*(column[order] for column in columns)),
                      tuple(map(labels.__getitem__, order.tolist())))


def _inject_flood(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Poisson-spaced frames inside the window: uniform 11-bit ids (known or
    foreign) with random payloads, or id 0 with an empty payload."""
    kind = scenario.kind
    base = _as_labeled(log)
    start, end = scenario.window
    _check_window_overlap(base.log, start, end)
    rng = np.random.default_rng([scenario.seed, _KIND_TAGS[kind]])
    count = int(rng.poisson(scenario.rate * (end - start)))
    times = np.sort(start + rng.uniform(0.0, end - start, count))
    if kind == LABEL_RANDOM_ID:
        ids = rng.integers(0, CAN_SFF_MAX + 1, count)
        plen = 8 if scenario.payload_length is None else scenario.payload_length
    else:
        ids = np.zeros(count, dtype=np.int64)
        plen = 0 if scenario.payload_length is None else scenario.payload_length
    payload = np.zeros((count, MAX_PAYLOAD_BYTES), dtype=np.uint8)
    payload[:, :plen] = rng.integers(0, 256, size=(count, plen), dtype=np.uint8)
    return _merge(base, (times, ids, np.zeros(count, dtype=np.bool_),
                         np.full(count, plen, dtype=np.uint8), payload), kind)


def _inject_replay(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Re-transmit a captured segment starting at the attack window,
    ``repeat`` times back-to-back, preserving intra-segment gaps."""
    base = _as_labeled(log)
    src_start, src_end = scenario.replay_segment
    times = base.log.times
    inside = (src_start <= times) & (times < src_end)
    if not inside.any():
        raise ValueError(f"replay segment [{src_start}, {src_end}) contains no frames")
    span = src_end - src_start
    start = scenario.window[0]
    _check_window_overlap(base.log, start, start + scenario.repeat * span)
    # all copies at once, so that a repeat count too large to hold fails at allocation
    offsets = start + np.arange(scenario.repeat) * span - src_start
    rows = np.tile(np.flatnonzero(inside), scenario.repeat)
    added = [(times[inside] + offsets[:, None]).ravel()] + [getattr(base.log, name)[rows]
                                                             for name in COLUMNS[1:]]
    return _merge(base, tuple(added), LABEL_REPLAY)


def inject(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Apply one attack, chosen by ``scenario.kind``, to a log; a plain log
    counts as all-normal."""
    if scenario.kind in _FLOOD_KINDS:
        return _inject_flood(log, scenario)
    return _inject_replay(log, scenario)


def label_windows(labeled: LabeledLog, windows: Sequence[Window]) -> list[str]:
    """Ground-truth label per window: the attack kind if the window holds any
    injected frame (majority kind on mixes, ties to the earliest injected
    frame among the tied kinds), else normal.

    Each window must be a slice of ``labeled.log``, as segment_windows cuts
    it: it starts at the first frame at or after ``w.start``."""
    log, labels = labeled.log, labeled.frame_labels
    starts = np.searchsorted(log.times, [w.start for w in windows], side="left")
    out = []
    for k, (w, lo) in enumerate(zip(windows, starts.tolist())):
        hi = lo + len(w.frames)
        if log[lo:hi] != w.frames:
            raise ValueError(f"window {k} (start {w.start}) is not a slice of the "
                             "labeled log")
        kinds = [label for label in labels[lo:hi] if label != LABEL_NORMAL]
        # max keeps the first of the tied kinds, in frame order
        out.append(max(kinds, key=Counter(kinds).__getitem__) if kinds else LABEL_NORMAL)
    return out


_BAD_LABEL_CHAR_RE = re.compile(r'[,"\x00-\x1f\x7f-\x9f]')


def write_labels(labels: Iterable[str], sink: IO[str]) -> None:
    """Sidecar label column: header + one label per frame, log order,
    written ``CHUNK_LINES`` labels at a time."""
    sink.write("label\n")
    labels = iter(labels)
    while chunk := list(itertools.islice(labels, CHUNK_LINES)):
        sink.write("\n".join(chunk) + "\n")


def read_labels(stream: Iterable[str]) -> list[str]:
    """Frame labels of a sidecar, one per line. A label must be writable as
    one bare feature-CSV cell, so a blank line, ``,``, ``"`` and control
    characters are rejected."""
    lines = [line.rstrip("\n") for line in stream]
    if not lines or lines[0] != "label":
        raise ValueError("first line is not the header 'label'")
    body = lines[1:]
    for label in dict.fromkeys(body):  # distinct labels, first seen first
        if not label:
            raise ValueError(f"line {body.index(label) + 2}: blank label")
        if _BAD_LABEL_CHAR_RE.search(label):
            raise ValueError(f"line {body.index(label) + 2}: label {label!r} "
                             f"contains ',', '\"' or a control character")
    return body


def save_labeled(labeled: LabeledLog, log_path: str, labels_path: str) -> None:
    save_log(labeled.log, log_path)
    with open(labels_path, "w", encoding="utf-8", newline="") as f:
        write_labels(labeled.frame_labels, f)


def load_labeled(log_path: str, labels_path: str) -> LabeledLog:
    log = load_log(log_path)
    with naming(f"label file {labels_path}"):
        return LabeledLog(log, tuple(read_labels(read_text(labels_path))))
