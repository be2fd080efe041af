"""Synthetic CAN traffic and injection attacks for end-to-end testing.

Normal traffic: each simulated ECU transmits at a nominal period with
uniform jitter. Attacks mirror the three DoS-style injections (random-ID
flood, zero-ID flood, replay). Everything is seed-deterministic, and attack
provenance travels in a sidecar label sequence so serialized logs stay
format-pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .canlog import CAN_SFF_MAX, CanFrame, CanLog
from .features import (LABEL_NORMAL, LABEL_RANDOM_ID, LABEL_REPLAY,
                       LABEL_ZERO_ID, Window)

ATTACK_KINDS = (LABEL_RANDOM_ID, LABEL_ZERO_ID, LABEL_REPLAY)
_FLOOD_KINDS = (LABEL_RANDOM_ID, LABEL_ZERO_ID)

# fixed per-kind rng stream tags; keeps stacked injections independent
_KIND_TAGS = {LABEL_RANDOM_ID: 1, LABEL_ZERO_ID: 2, LABEL_REPLAY: 3}


@dataclass(frozen=True)
class EcuSpec:
    """One periodic transmitter: nominal period with uniform +/- jitter."""

    can_id: int
    period: float
    jitter: float = 0.0
    payload_length: int = 8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be finite and > 0, got {self.period!r}")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter fraction must be in [0, 1)")
        if not 0 <= self.payload_length <= 8:
            raise ValueError("payload length must be 0..8")


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
    (8 random bytes for random-ID, empty for zero-ID).
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
        else:
            if self.replay_segment is None:
                raise ValueError("replay needs a (src_start, src_end) segment")
            s0, s1 = self.replay_segment
            if not s1 > s0:
                raise ValueError("replay segment must have src_end > src_start")
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
        if len(self.frame_labels) != len(self.log.frames):
            raise ValueError("one label per frame required")


def generate_normal(spec: BusSpec) -> CanLog:
    """Synthesize attack-free traffic; deterministic for a fixed seed."""
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.ids))
    times_parts, id_parts, payload_parts = [], [], []
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
        times_parts.append(t)
        id_parts.append(np.full(t.size, ecu.can_id, dtype=np.int64))
        payload_parts.append(rng.integers(0, 256, size=(count, ecu.payload_length),
                                          dtype=np.uint8)[keep])
    times = np.concatenate(times_parts) if times_parts else np.empty(0)
    ids = np.concatenate(id_parts) if id_parts else np.empty(0, dtype=np.int64)
    payloads = [bytes(row) for part in payload_parts for row in part]
    order = np.argsort(times, kind="stable")
    frames = tuple(CanFrame(float(times[i]), int(ids[i]), payloads[i])
                   for i in order)
    return CanLog(frames, source=f"synthetic(seed={spec.seed})")


def _as_labeled(log: CanLog | LabeledLog) -> LabeledLog:
    if isinstance(log, LabeledLog):
        return log
    return LabeledLog(log, (LABEL_NORMAL,) * len(log.frames))


def _check_window_overlap(base: CanLog, start: float, end: float) -> None:
    if not base.frames:
        return
    t_first, t_last = base.span
    if end <= t_first or start > t_last:
        raise ValueError(f"attack window [{start}, {end}) lies outside the "
                         f"log span [{t_first}, {t_last}]")


def _merge(base: LabeledLog, times: np.ndarray, frames: list[CanFrame],
           kind: str) -> LabeledLog:
    """Append injected frames, re-sort stably; base frames are never touched."""
    base_times = np.array([f.timestamp for f in base.log.frames])
    all_times = np.concatenate([base_times, times])
    all_frames = list(base.log.frames) + frames
    all_labels = list(base.frame_labels) + [kind] * len(frames)
    order = np.argsort(all_times, kind="stable")
    merged = tuple(all_frames[i] for i in order)
    labels = tuple(all_labels[i] for i in order)
    return LabeledLog(CanLog(merged, source=base.log.source), labels)


def _inject_flood(log: CanLog | LabeledLog, scenario: AttackScenario,
                  kind: str) -> LabeledLog:
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
    payloads = rng.integers(0, 256, size=(count, plen), dtype=np.uint8)
    frames = [CanFrame(float(times[i]), int(ids[i]), bytes(payloads[i]))
              for i in range(count)]
    return _merge(base, times, frames, kind)


def inject_random_id(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Flood with Poisson-spaced frames carrying uniform 11-bit ids (known or
    foreign) and random payloads."""
    if scenario.kind != LABEL_RANDOM_ID:
        raise ValueError(f"scenario kind is {scenario.kind}, not random_id")
    return _inject_flood(log, scenario, LABEL_RANDOM_ID)


def inject_zero_id(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Flood with Poisson-spaced frames on id 0 (payload empty by default)."""
    if scenario.kind != LABEL_ZERO_ID:
        raise ValueError(f"scenario kind is {scenario.kind}, not zero_id")
    return _inject_flood(log, scenario, LABEL_ZERO_ID)


def inject_replay(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Re-transmit a captured segment starting at the attack window,
    ``repeat`` times back-to-back, preserving intra-segment gaps."""
    if scenario.kind != LABEL_REPLAY:
        raise ValueError(f"scenario kind is {scenario.kind}, not replay")
    base = _as_labeled(log)
    src_start, src_end = scenario.replay_segment
    segment = [f for f in base.log.frames if src_start <= f.timestamp < src_end]
    if not segment:
        raise ValueError(f"replay segment [{src_start}, {src_end}) contains no frames")
    span = src_end - src_start
    start = scenario.window[0]
    _check_window_overlap(base.log, start, start + scenario.repeat * span)
    times, frames = [], []
    for r in range(scenario.repeat):
        shift = start + r * span - src_start
        for f in segment:
            times.append(f.timestamp + shift)
            frames.append(CanFrame(f.timestamp + shift, f.can_id, f.payload,
                                   channel=f.channel, extended=f.extended))
    return _merge(base, np.array(times), frames, LABEL_REPLAY)


def inject(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Dispatch on the scenario kind."""
    if scenario.kind == LABEL_RANDOM_ID:
        return inject_random_id(log, scenario)
    if scenario.kind == LABEL_ZERO_ID:
        return inject_zero_id(log, scenario)
    return inject_replay(log, scenario)


def _window_ranges(labeled: LabeledLog, windows: Sequence[Window]) -> list[tuple[int, int]]:
    """Frame index range of each window. Tumbling windows from
    segment_windows are consecutive slices of the log, which we match
    exactly; anything else falls back to time-bound lookup."""
    frames = labeled.log.frames
    ranges = []
    cursor = 0
    for w in windows:
        n = len(w.frames)
        if frames[cursor:cursor + n] != w.frames:
            break
        ranges.append((cursor, cursor + n))
        cursor += n
    else:
        if cursor == len(frames):
            return ranges
    times = np.array([f.timestamp for f in frames])
    return [(int(np.searchsorted(times, w.start, side="left")),
             int(np.searchsorted(times, w.start + w.length, side="left")))
            for w in windows]


def label_windows(labeled: LabeledLog, windows: Sequence[Window]) -> list[str]:
    """Ground-truth label per window: the attack kind if the window holds any
    injected frame (majority kind on mixes, ties to the earliest injected
    frame among the tied kinds), else normal."""
    labels = labeled.frame_labels
    out = []
    for lo, hi in _window_ranges(labeled, windows):
        injected = [labels[i] for i in range(lo, hi) if labels[i] != LABEL_NORMAL]
        if not injected:
            out.append(LABEL_NORMAL)
            continue
        counts: dict[str, int] = {}
        for kind in injected:
            counts[kind] = counts.get(kind, 0) + 1
        top = max(counts.values())
        tied = {kind for kind, c in counts.items() if c == top}
        out.append(next(kind for kind in injected if kind in tied))
    return out


def write_labels(labels: Iterable[str], sink: IO[str]) -> None:
    """Sidecar label column: header + one label per frame, log order."""
    sink.write("label\n")
    for label in labels:
        sink.write(label + "\n")


def read_labels(stream: Iterable[str]) -> list[str]:
    lines = [line.rstrip("\n") for line in stream]
    if not lines or lines[0] != "label":
        raise ValueError("label file must start with a 'label' header")
    return [line for line in lines[1:] if line]


def save_labeled(labeled: LabeledLog, log_path: str, labels_path: str) -> None:
    from .canlog import save_log

    save_log(labeled.log, log_path)
    with open(labels_path, "w", encoding="utf-8", newline="") as f:
        write_labels(labeled.frame_labels, f)


def load_labeled(log_path: str, labels_path: str) -> LabeledLog:
    from .canlog import load_log

    log = load_log(log_path)
    with open(labels_path, "r", encoding="utf-8") as f:
        return LabeledLog(log, tuple(read_labels(f)))
