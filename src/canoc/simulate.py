"""Synthetic CAN traffic and injection attacks for end-to-end testing.

Normal traffic: each simulated ECU transmits at a nominal period with
uniform jitter. Attacks mirror the three DoS-style injections (random-ID
flood, zero-ID flood, replay). Everything is seed-deterministic. Attack
provenance is each frame's label, in the log's label column; on disk it
travels in a sidecar label file so serialized logs stay format-pure.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .canlog import (CAN_SFF_MAX, CHUNK_LINES, COLUMNS, MAX_PAYLOAD_BYTES, CanLog, _view,
                     id_text, iter_log, join_logs, write_csv_log)
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
        # the simulator writes standard frames
        if not 0 <= self.can_id <= CAN_SFF_MAX:
            raise ValueError(f"bus id {id_text(self.can_id)} is outside the standard "
                             f"range 0x0..0x{CAN_SFF_MAX:X}")


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
    back-to-back; its window's end must pass the check but is not used.
    ``payload_length`` overrides the per-kind default (8 random bytes for
    random-ID, empty for zero-ID). A field of the other kinds must keep its
    default.
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
        if self.window is None:
            raise ValueError("attack scenario needs a (start, end) window")
        start, end = self.window
        if not (math.isfinite(start) and math.isfinite(end) and end > start):
            raise ValueError(f"attack window must be finite with end > start, "
                             f"got {self.window!r}")
        if self.payload_length is not None and not 0 <= self.payload_length <= 8:
            raise ValueError("payload length must be 0..8")


_BAD_LABEL_CHAR_RE = re.compile(r'[,"\x00-\x1f\x7f-\x9f]')


def _label_fault(label: str) -> str | None:
    """Why ``label`` cannot be written as one bare feature-CSV cell, or None."""
    if not label:
        return "blank label"
    if _BAD_LABEL_CHAR_RE.search(label):
        return f"label {label!r} contains ',', '\"' or a control character"
    return None


def _encode(labels: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """The code of each label in ``index``, which gives each new label the
    next code, up to 255."""
    for label in dict.fromkeys(labels):
        if index.setdefault(label, len(index)) > 255:
            raise ValueError("a labeled log holds at most 256 distinct labels")
    return np.frombuffer(bytes(map(index.__getitem__, labels)), dtype=np.uint8)


class LabeledLog:
    """A labeled log: ``LabeledLog(log, labels)`` gives the frames of
    ``log`` the provenance labels ``labels``, one per frame in order, as
    its label column; without ``labels`` the log keeps its own. A label
    that the sidecar grammar refuses is an error naming its first frame."""

    def __init__(self, log: CanLog, labels: Iterable[str] | None = None) -> None:
        if labels is not None:
            labels, index = list(labels), {LABEL_NORMAL: 0}
            if len(labels) != len(log):
                raise ValueError("one label per frame required")
            codes = _encode(labels, index)
            for label in index:  # the distinct labels, first seen first
                if fault := _label_fault(label):
                    raise ValueError(f"frame {labels.index(label)}: {fault}")
            log = log.with_labels(codes, tuple(index))
        self.log = log

    @property
    def frame_labels(self) -> tuple[str, ...]:
        """The label of each frame, in log order."""
        names = np.array(self.log.label_names, dtype=object)
        return tuple(names[self.log.label_codes()].tolist())


def _normal_slices(spec: BusSpec) -> tuple[int, Iterator[CanLog]]:
    """The frame count of :func:`iter_normal` and its slices."""
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.ids))
    ecus = []
    for ecu, stream in zip(spec.ids, streams):
        rng = np.random.default_rng(stream)
        count = int(np.ceil(spec.duration / ecu.period)) + 2
        t = np.arange(count, dtype=np.float64)
        t *= ecu.period
        amp = ecu.jitter * ecu.period
        t += rng.uniform(-amp, amp, count)
        np.maximum(t, 0.0, out=t)
        t.sort(kind="stable")
        ecus.append((ecu.can_id, t[:int(np.searchsorted(t, spec.duration))], rng))
    frames = sum(len(t) for _, t, _ in ecus)
    edges = np.linspace(0.0, spec.duration, -(-frames // CHUNK_LINES) + 1)[1:-1]
    cuts = [[0, *np.searchsorted(t, edges).tolist(), len(t)] for _, t, _ in ecus]

    def slices() -> Iterator[CanLog]:
        can_ids = [can_id for can_id, _, _ in ecus]
        for k in range(len(edges) + 1):
            # each ECU's columns in ECU order, joined, then one stable sort
            spans = [t[cut[k]:cut[k + 1]] for (_, t, _), cut in zip(ecus, cuts)]
            payload = [rng.integers(0, 256, size=(len(span), MAX_PAYLOAD_BYTES), dtype=np.uint8)
                       for (_, _, rng), span in zip(ecus, spans)]
            ids = np.repeat(can_ids, [len(span) for span in spans])
            times = np.concatenate(spans)
            order = np.argsort(times, kind="stable")
            yield CanLog(times[order], ids[order], np.zeros(len(order), dtype=np.bool_),
                         np.full(len(order), MAX_PAYLOAD_BYTES, dtype=np.uint8),
                         np.concatenate(payload)[order])

    return frames, slices()


def iter_normal(spec: BusSpec) -> Iterator[CanLog]:
    """Attack-free traffic as consecutive time slices of about
    ``CHUNK_LINES`` frames; deterministic for a fixed seed.

    Each ECU draws all its jittered times here, before the first slice, so
    that a bus too large to hold fails at once. Its payload rows are drawn
    slice by slice, in order, from the generator its uniforms left: numpy
    makes each 8-byte row of 2 whole 32-bit draws, so the rows equal those
    of one draw. A slice holds each ECU's frames in ECU order, stably
    sorted, as the frames of that time span are in the sort of all of them.
    """
    return _normal_slices(spec)[1]


def generate_normal(spec: BusSpec) -> CanLog:
    """Synthesize attack-free traffic: the slices of :func:`iter_normal`,
    copied one by one into columns allocated once for all the frames."""
    frames, slices = _normal_slices(spec)
    times, ids = np.empty(frames, dtype=np.float64), np.empty(frames, dtype=np.int64)
    payload = np.empty((frames, MAX_PAYLOAD_BYTES), dtype=np.uint8)
    at = 0
    for part in slices:
        end = at + len(part)
        times[at:end], ids[at:end], payload[at:end] = part.times, part.ids, part.payload
        at = end
    # valid slices, each after the one before in time: nothing to check again
    return _view([times, ids, np.zeros(frames, dtype=np.bool_),
                  np.full(frames, MAX_PAYLOAD_BYTES, dtype=np.uint8), payload])


def _check_window_overlap(span: tuple[float, float] | None, start: float, end: float) -> None:
    """``span`` is the base log's (first, last) timestamp, None when it is empty."""
    if span is None:
        return
    t_first, t_last = span
    if end <= t_first or start > t_last:
        raise ValueError(f"attack window [{start}, {end}) lies outside the "
                         f"log span [{t_first}, {t_last}]")


def _segment(log: CanLog, scenario: AttackScenario) -> CanLog:
    """The frames of a time-sorted log that a replay copies; none for a flood."""
    if scenario.kind in _FLOOD_KINDS:
        return log[:0]
    lo, hi = np.searchsorted(log.times, scenario.replay_segment, side="left").tolist()
    return log[lo:hi]


def _attack(scenario: AttackScenario, span: tuple[float, float] | None,
            segment: CanLog) -> CanLog:
    """The injected frames of ``scenario``, stably sorted by timestamp and
    labeled with its kind, on a base log of ``span`` whose replay source
    frames are ``segment``.

    A flood draws Poisson-spaced frames inside the window: uniform 11-bit
    ids (known or foreign) with random payloads, or id 0 with an empty
    payload. A replay re-transmits the segment from the window start,
    ``repeat`` times back-to-back, keeping its gaps."""
    kind = scenario.kind
    start, end = scenario.window
    if kind in _FLOOD_KINDS:
        _check_window_overlap(span, start, end)
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
        columns = [times, ids, np.zeros(count, dtype=np.bool_),
                   np.full(count, plen, dtype=np.uint8), payload]
    else:
        src_start, src_end = scenario.replay_segment
        if not len(segment):
            raise ValueError(f"replay segment [{src_start}, {src_end}) contains no frames")
        length = src_end - src_start
        # a replay's frames span its copies of the segment, whatever the window's end
        end = start + scenario.repeat * length
        _check_window_overlap(span, start, end)
        # all copies at once, so that a repeat count too large to hold fails at allocation
        offsets = start + np.arange(scenario.repeat) * length - src_start
        rows = np.tile(np.arange(len(segment)), scenario.repeat)
        columns = [(segment.times + offsets[:, None]).ravel()] + [getattr(segment, name)[rows]
                                                                  for name in COLUMNS[1:]]
    order = np.argsort(columns[0], kind="stable")
    if len(order) and columns[0][order[0]] < 0:
        raise ValueError(f"attack window [{start}, {end}) would put a frame at "
                         f"{columns[0][order[0]]:.6f} s, before 0 s")
    return CanLog(*(column[order] for column in columns)).with_labels(
        np.ones(len(order), dtype=np.uint8), (LABEL_NORMAL, kind))


def inject(log: CanLog | LabeledLog, scenario: AttackScenario) -> LabeledLog:
    """Apply one attack, chosen by ``scenario.kind``, to a log; a plain log
    counts as all-normal. Base rows are never touched, and come before the
    injected rows at equal timestamps."""
    base = log.log if isinstance(log, LabeledLog) else log
    span = base.span if len(base) else None
    return LabeledLog(join_logs([base, _attack(scenario, span, _segment(base, scenario))]))


def scan_log(path: str, scenario: AttackScenario) -> tuple[CanLog, list[float]]:
    """A first pass over the log file at ``path`` for :func:`iter_injected`:
    the labeled frames that ``scenario`` injects, and the earliest time of each
    batch of :func:`canoc.canlog.iter_log`, infinite for an empty one."""
    first, last, earliest, segment = math.inf, -math.inf, [], join_logs([])
    for batch in iter_log(path):
        earliest.append(float(batch.times[0]) if len(batch) else math.inf)
        if len(batch):
            first, last = min(first, float(batch.times[0])), max(last, float(batch.times[-1]))
        # a copy, so that no batch is kept
        segment = join_logs([segment, _segment(batch, scenario)])
    span = (first, last) if first <= last else None
    return _attack(scenario, span, segment), earliest


def iter_injected(batches: Iterable[CanLog], earliest: Sequence[float],
                  added: CanLog) -> Iterator[CanLog]:
    """The frames of :func:`inject`, with the base log read as ``batches``
    and ``added`` and ``earliest`` from :func:`scan_log`: a part after each
    batch. A base frame is held until no later batch holds an earlier one,
    and an injected frame until no later batch holds one as early; so the
    parts of a log whose batches do not overlap in time hold one batch."""
    held = join_logs([])
    # per batch, the earliest time of the batches after it
    bounds = np.minimum.accumulate(np.append(earliest, math.inf)[::-1])[-2::-1]
    for k, batch in enumerate(batches):
        if k == len(bounds):
            raise ValueError("the log changed between the two passes over it")
        held = join_logs([held, batch])
        base = int(np.searchsorted(held.times, bounds[k], side="right"))
        injected = int(np.searchsorted(added.times, bounds[k], side="left"))
        yield join_logs([held[:base], added[:injected]])
        held, added = held[base:], added[injected:]
    if len(held) or len(added):
        raise ValueError("the log changed between the two passes over it")


def label_windows(labeled: LabeledLog | None, windows: Sequence[Window]) -> list[str]:
    """Ground-truth label per window: the attack kind if the window holds any
    injected frame (majority kind on mixes, ties to the earliest injected
    frame among the tied kinds), else normal.

    A window cut from a labeled log, such as ``labeled.log`` or a batch of
    :func:`iter_labeled`, carries its frames' labels. Any other window must
    be a slice of ``labeled.log``, as segment_windows cuts it: it starts at
    the first frame at or after ``w.start``; without ``labeled`` it is normal."""
    parts = [w.frames for w in windows]
    if labeled is not None:
        starts = np.searchsorted(labeled.log.times, [w.start for w in windows], side="left")
        for k, lo in enumerate(starts.tolist()):
            if parts[k].labels is None:
                parts[k] = labeled.log[lo:lo + len(parts[k])]
                if parts[k] != windows[k].frames:
                    raise ValueError(f"window {k} (start {windows[k].start}) is not a "
                                     "slice of the labeled log")
    codes = np.concatenate([np.zeros(0, np.uint8), *(part.label_codes() for part in parts)])
    lengths = np.array([len(part) for part in parts], dtype=np.intp)
    hi = np.cumsum(lengths)
    lo = hi - lengths
    # per window, the best code so far, its frame count and its first frame; codes
    # compare only within a window, whose frames share one label table
    best, count, first = np.zeros((3, len(parts)), dtype=np.intp)
    for code in np.flatnonzero(np.bincount(codes)[1:]) + 1:
        at = np.flatnonzero(codes == code)
        a = np.searchsorted(at, lo)
        n, start = np.searchsorted(at, hi) - a, at[np.minimum(a, len(at) - 1)]
        wins = (n > count) | ((n == count) & (n > 0) & (start < first))
        best[wins], count[wins], first[wins] = code, n[wins], start[wins]
    return [part.label_names[code] for part, code in zip(parts, best.tolist())]


def write_labels(labels: Iterable[str], sink: IO[str], *, header: bool = True) -> None:
    """Sidecar label column: header + one label per frame, log order,
    written ``CHUNK_LINES`` labels at a time. Without ``header``, only the
    labels are written, as for the batches of a log after its first."""
    if header:
        sink.write("label\n")
    labels = iter(labels)
    while chunk := list(itertools.islice(labels, CHUNK_LINES)):
        sink.write("\n".join(chunk) + "\n")


# characters read from a label sidecar at a time: about 9,000 short labels
LABEL_READ = 1 << 16


def _label_chunks(f: IO[str]) -> Iterator[list[str]]:
    """The labels of a sidecar text stream after its header ``label``, the
    whole lines of ``LABEL_READ`` characters at a time. A label must be
    writable as one bare feature-CSV cell, so a blank line, ``,``, ``"``
    and control characters are rejected."""
    line, rest = 1, ""  # line: the line number of labels[0]
    while True:
        block = f.read(LABEL_READ)
        if block:
            labels = (rest + block).split("\n")
            rest = labels.pop()
        else:  # the last line, when it has no newline
            labels = [rest] if rest else []
        if line == 1 and (labels or not block):
            if labels[:1] != ["label"]:
                raise ValueError("first line is not the header 'label'")
            del labels[0]
            line = 2
        for label in dict.fromkeys(labels):  # distinct labels, first seen first
            if fault := _label_fault(label):
                raise ValueError(f"line {labels.index(label) + line}: {fault}")
        if labels:
            yield labels
            line += len(labels)
        if not block:
            return


def read_labels(stream: IO[str]) -> list[str]:
    """Frame labels of a sidecar text stream, one per line after the header ``label``."""
    return list(itertools.chain.from_iterable(_label_chunks(stream)))


def _sidecar(path: str) -> Iterator[list[str]]:
    """The label chunks of the sidecar file at ``path``."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from _label_chunks(f)
    except UnicodeDecodeError:
        read_text(path)  # raises the error again, naming its line
        raise


def iter_labeled(log_path: str, labels_path: str | None = None) -> Iterator[CanLog]:
    """The batches of :func:`canoc.canlog.iter_log`, labeled from the
    sidecar at ``labels_path``, read in step: each line's label goes with
    its frame through the batch's sort. Without a sidecar every frame is
    normal. A :class:`LateFrameError` thrown in goes on to the log reader,
    which raises it again naming its row."""
    if labels_path is None:
        yield from iter_log(log_path)
        return
    where, index = f"label file {labels_path}", {LABEL_NORMAL: 0}
    labels = itertools.chain.from_iterable(_sidecar(labels_path))

    def take(count: int) -> tuple[np.ndarray, tuple[str, ...]]:
        with naming(where):
            chunk = list(itertools.islice(labels, count))
            if len(chunk) < count:
                raise ValueError("one label per frame required")
            return _encode(chunk, index), tuple(index)

    yield from iter_log(log_path, labels=take)
    with naming(where):
        if next(labels, None) is not None:
            raise ValueError("one label per frame required")


def save_labeled(batches: Iterable[CanLog], log_path: str, labels_path: str) -> int:
    """Write the batches of one log, at least one, as a CSV log and the
    label sidecar of their frames, batch by batch, and return the frame
    count. When writing fails, no file written is left."""
    if os.path.realpath(log_path) == os.path.realpath(labels_path):
        raise ValueError(f"the log and its labels would both be written to {log_path}")
    written, frames = [], 0
    try:
        with open(log_path, "w", encoding="utf-8", newline="") as log_file:
            written.append(log_path)
            with open(labels_path, "w", encoding="utf-8", newline="") as labels_file:
                written.append(labels_path)
                for k, part in enumerate(batches):
                    write_csv_log(part, log_file, header=not k)
                    write_labels(LabeledLog(part).frame_labels, labels_file, header=not k)
                    frames += len(part)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return frames
