"""CAN traffic logs held as columns, plus the two on-disk traffic formats.

A :class:`CanLog` stores its frames as five arrays and is a read-only
sequence of them: a :class:`CanFrame` is built only when a caller indexes
or iterates the log.

Two formats are supported, each with one grammar and one parser: the
candump text format ``(<sec.usec>) <iface> <ID>#<DATA>`` and a CSV format
with header ``timestamp,id,dlc,payload`` (payload as contiguous hex, dlc =
payload byte count), as :func:`write_csv_log` writes it. Each parser reads
the bytes of a batch of lines in one numpy pass per check and raises
:class:`LogParseError` naming the first bad line's row; logs are immutable
value objects safe to share across threads. A file is read as batches of
lines (:func:`iter_log`), so that a consumer can act on its start before
the rest is read; :func:`load_log` joins them.
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import IO, BinaryIO, Callable, Iterable, Iterator

import numpy as np

CAN_SFF_MAX = 0x7FF  # 11-bit standard id
CAN_EFF_MAX = 0x1FFFFFFF  # 29-bit extended id
MAX_PAYLOAD_BYTES = 8

# candump convention: microsecond precision; bounds round-trip loss
TIMESTAMP_DECIMALS = 6

CSV_HEADER = ("timestamp", "id", "dlc", "payload")
_CSV_HEADER_LINE = ",".join(CSV_HEADER).encode("ascii")

# lines per chunk written at once by the CSV writer and the label sidecar
# writer; about the frames of one slice of simulated traffic
CHUNK_LINES = 1 << 13

# the label of a frame that carries none; code 0 of every label column
LABEL_NORMAL = "normal"

# bytes read from a log file at a time, each read one batch cut at its last
# newline: about 5.7k candump or 7.5k CSV lines
READ_BYTES = 1 << 18


class LogParseError(ValueError):
    """Malformed traffic input, with the offending data row attached when known."""

    def __init__(self, message: str, *, row: int | None = None) -> None:
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class LateFrameError(LogParseError):
    """A frame earlier than ``floor``, the end of a window already printed:
    a log read in batches can no longer place it."""

    def __init__(self, time: float, floor: float, *, row: int | None = None) -> None:
        super().__init__(f"frame at {time:.6f} s is earlier than {floor:.6f} s, "
                         "the end of a window already printed", row=row)
        self.floor = floor


def id_text(can_id: int) -> str:
    """``can_id`` in hex as messages print it, ``-0x1`` for -1."""
    return f"{'-' if can_id < 0 else ''}0x{abs(can_id):X}"


def _check_frame(timestamp: float, can_id: int, payload_length: int,
                 extended: bool) -> None:
    """Raise the ``ValueError`` for the first frame invariant these fields break."""
    if not math.isfinite(timestamp) or timestamp < 0:
        raise ValueError(f"timestamp must be finite and >= 0, got {timestamp}")
    limit = CAN_EFF_MAX if extended else CAN_SFF_MAX
    if not 0 <= can_id <= limit:
        raise ValueError(f"id {id_text(can_id)} out of range for "
                         f"{'extended' if extended else 'standard'} addressing")
    if payload_length > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload length {payload_length} exceeds {MAX_PAYLOAD_BYTES}")


@dataclass(frozen=True)
class CanFrame:
    """One timestamped CAN message.

    ``can_id`` must fit the addressing mode: 11 bits unless ``extended``.
    """

    timestamp: float
    can_id: int
    payload: bytes = b""
    extended: bool = False

    def __post_init__(self) -> None:
        _check_frame(self.timestamp, self.can_id, len(self.payload), self.extended)


COLUMNS = ("times", "ids", "extended", "dlc", "payload")
_LABELED = (*COLUMNS, "labels")
_DTYPES = (np.float64, np.int64, np.bool_, np.uint8, np.uint8)

# a payload row read as a little-endian u8 is at most _PAYLOAD_MAX[dlc]
# exactly when its bytes past dlc are zero
_PAYLOAD_MAX = np.array([(1 << 8 * k) - 1 for k in range(MAX_PAYLOAD_BYTES + 1)],
                        dtype=np.uint64)


def _payload_matrix(dlc: np.ndarray, raw: bytes) -> np.ndarray:
    """``[n, 8]`` payload rows from the concatenated payload bytes of n frames."""
    payload = np.zeros((dlc.shape[0], MAX_PAYLOAD_BYTES), dtype=np.uint8)
    payload[np.arange(MAX_PAYLOAD_BYTES) < dlc[:, None]] = np.frombuffer(raw, dtype=np.uint8)
    return payload


@dataclass(frozen=True, eq=False)
class CanLog(Sequence):
    """A timestamp-sorted CAN log held as columns; ties keep input order.

    ``times`` f8 seconds, ``ids`` i8, ``extended`` bool, ``dlc`` u1 payload
    byte count and ``payload`` u1 ``[n, 8]``, zero past ``dlc``. The log
    keeps read-only views of the arrays it is given. A log from
    :meth:`with_labels` also has ``labels``, a u1 code per frame into
    ``label_names``, which every slice, join and sort moves with the frames.

    A log is a read-only sequence of its frames: ``len`` is O(1), an index
    builds one :class:`CanFrame`, a step-1 slice is a log sharing this
    log's memory, and a log equals another log with the same frame columns,
    whatever their labels, or a tuple of the same frames.
    """

    times: np.ndarray
    ids: np.ndarray
    extended: np.ndarray
    dlc: np.ndarray
    payload: np.ndarray
    labels: np.ndarray | None = field(default=None, init=False)
    label_names: tuple[str, ...] = field(default=(LABEL_NORMAL,), init=False)

    def __post_init__(self) -> None:
        for name, dtype in zip(COLUMNS, _DTYPES):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        n = self.times.shape[0]
        if (self.times.shape != (n,) or self.ids.shape != (n,)
                or self.extended.shape != (n,) or self.dlc.shape != (n,)
                or self.payload.shape != (n, MAX_PAYLOAD_BYTES)):
            raise ValueError("log columns must be n-vectors and an [n, 8] payload")
        limit = np.where(self.extended, CAN_EFF_MAX, CAN_SFF_MAX)
        bad = (~np.isfinite(self.times) | (self.times < 0) | (self.ids < 0)
               | (self.ids > limit) | (self.dlc > MAX_PAYLOAD_BYTES))
        if bad.any():
            k = int(np.argmax(bad))
            _check_frame(float(self.times[k]), int(self.ids[k]), int(self.dlc[k]),
                         bool(self.extended[k]))
        if (np.ascontiguousarray(self.payload).view("<u8")[:, 0] > _PAYLOAD_MAX[self.dlc]).any():
            raise ValueError("payload bytes past dlc must be zero")
        if (self.times[1:] < self.times[:-1]).any():
            raise ValueError("frames not sorted by timestamp")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def frames(self) -> "CanLog":
        """The log itself, for callers that write ``len(log.frames)``."""
        return self

    @classmethod
    def from_frames(cls, frames: Iterable[CanFrame]) -> "CanLog":
        """Build a log from frames in any order (stable sort by timestamp)."""
        return cls(*_sorted(_columns([(f.timestamp, f.can_id, f.extended, f.payload)
                                      for f in frames])))

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) timestamp; raises on an empty log."""
        if not len(self):
            raise ValueError("empty log has no time span")
        return float(self.times[0]), float(self.times[-1])

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step != 1:
                return tuple(self[k] for k in range(lo, hi, step))
            names = COLUMNS if self.labels is None else _LABELED
            return _view([getattr(self, name)[lo:max(lo, hi)] for name in names],
                         self.label_names)
        k = range(len(self))[key]
        return CanFrame(float(self.times[k]), int(self.ids[k]),
                        self.payload[k, :self.dlc[k]].tobytes(), bool(self.extended[k]))

    def __eq__(self, other) -> bool:
        if isinstance(other, CanLog):
            return len(self) == len(other) and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in COLUMNS)
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    __hash__ = None

    def with_labels(self, labels: np.ndarray, names: tuple[str, ...]) -> "CanLog":
        """These frames, labeled ``names[labels[k]]``; ``names[0]`` must be ``LABEL_NORMAL``."""
        return _view([*(getattr(self, name) for name in COLUMNS), labels], names)

    def label_codes(self) -> np.ndarray:
        """Each frame's label code: 0, ``LABEL_NORMAL``, for a log without labels."""
        return np.zeros(len(self), dtype=np.uint8) if self.labels is None else self.labels


def _columns(rows: list[tuple[float, int, bool, bytes]]) -> tuple[np.ndarray, ...]:
    """Log columns, in file order, of (timestamp, id, extended, payload) rows."""
    n = len(rows)
    dlc = np.fromiter((len(row[3]) for row in rows), dtype=np.uint8, count=n)
    return (np.fromiter((row[0] for row in rows), dtype=np.float64, count=n),
            np.fromiter((row[1] for row in rows), dtype=np.int64, count=n),
            np.fromiter((row[2] for row in rows), dtype=np.bool_, count=n),
            dlc, _payload_matrix(dlc, b"".join(row[3] for row in rows)))


def _sorted(columns: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """Columns in timestamp order; a stable sort, so ties keep their order."""
    times = columns[0]
    if (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        columns = [column[order] for column in columns]
    return columns


def _view(columns: Sequence[np.ndarray], label_names=(LABEL_NORMAL,)) -> CanLog:
    """The log of ``columns`` in ``_LABELED`` order, the labels perhaps
    left out, which already hold a valid log's frames: made read-only, and
    checked for nothing again."""
    log = object.__new__(CanLog)
    object.__setattr__(log, "label_names", label_names)
    for name, column in zip(_LABELED, columns):
        column.flags.writeable = False
        object.__setattr__(log, name, column)
    return log


_EMPTY = CanLog(*_columns([]))


def join_logs(logs: Sequence[CanLog]) -> CanLog:
    """One log of the frames of ``logs`` in their order, stably sorted by
    timestamp: the frames of a log read in batches, or a log's last frames
    and the batch that follows them. Nothing is checked again. The join of a
    labeled log has the label names of ``logs`` in order, each once, at most 256."""
    if len(logs) == 1:
        return logs[0]
    if not logs:
        return _EMPTY
    columns = [np.concatenate([getattr(log, name) for log in logs]) for name in COLUMNS]
    if all(log.labels is None for log in logs):
        return _view(_sorted(columns))
    names = tuple(dict.fromkeys(name for log in logs for name in log.label_names))
    if len(names) > 256:
        raise ValueError("a labeled log holds at most 256 distinct labels")
    columns.append(np.concatenate([np.array(list(map(names.index, log.label_names)),
                                            dtype=np.uint8)[log.label_codes()] for log in logs]))
    return _view(_sorted(columns), names)


# byte -> hex digit value, 255 for a byte that is not a hex digit
_HEX = np.full(256, 255, dtype=np.uint8)
_HEX[np.frombuffer(b"0123456789ABCDEFabcdef", dtype=np.uint8)] = [*range(16), *range(10, 16)]
# exact doubles: 10**18 = 2**18 * 5**18 and 5**18 < 2**53
_POW10 = (10 ** np.arange(19)).astype(np.float64)
# Digit sums of nonnegative terms are exact doubles while below 2**53, and
# one that reaches 2**53 stays at or above it. Below 2**53, a timestamp's
# digits N and a power of ten up to 1e22 are exact doubles, so one division
# gives the double nearest the decimal text, as float() does.
_EXACT = 2.0 ** 53
# zero bytes around a batch's bytes, so that every window read below (at
# most 19 bytes from a field's edge) stays inside them
_PAD = 20
# row k: the first k, or the last k, of _PAD cells
_FIRST = np.arange(_PAD) < np.arange(_PAD + 1)[:, None]
_LAST = _FIRST[:, ::-1].copy()


class _Lines:
    """The lines of a batch's bytes, each checked by one numpy pass per check.

    The error of a batch is that of its first line that any check fails on,
    with the message of the first check that fails there. ``raw`` holds the
    bytes between zero padding, and positions index it.
    """

    def __init__(self, data: bytes, first_row: int, sep: str, count: int, message: str) -> None:
        """The lines of ``data`` before the first that holds a byte outside
        printable ASCII, or not ``count`` ``sep`` bytes (``message``), and
        their ``[n, count]`` separator positions ``seps``."""
        text = np.frombuffer(data, dtype=np.uint8)
        if text[-1] != 10:
            text = np.append(text, np.uint8(10))
        ends = np.flatnonzero(text == 10)
        # the first line a check failed on, or the line count while none has
        self.first_row, self.bad_line, self.count = first_row, len(ends), len(ends)
        self.message = ""
        # newlines are the only bytes outside " " to "~" (uint8 arithmetic wraps)
        odd = text - 32 > 94
        if np.count_nonzero(odd) != len(ends):
            bad = np.zeros(len(ends), dtype=bool)
            bad[np.searchsorted(ends, np.flatnonzero(odd & (text != 10)))] = True
            self.reject(bad, "byte outside printable ASCII")
        starts = np.concatenate(([0], ends[:-1] + 1))
        seps = np.flatnonzero(text == ord(sep))
        # sorted positions: when each line's share of them starts and ends
        # inside it, every line holds count
        if (len(seps) != count * len(ends) or (seps[::count] < starts).any()
                or (seps[count - 1::count] > ends).any()):
            self.reject(np.bincount(np.searchsorted(ends, seps), minlength=len(ends)) != count,
                        message)
        n = self.bad_line
        if not n:
            self.check()
        pad = np.zeros(_PAD, dtype=np.uint8)
        self.raw = np.concatenate((pad, text, pad))
        self.starts, self.ends = starts[:n] + _PAD, ends[:n] + _PAD
        self.seps = seps[:count * n].reshape(n, count) + _PAD

    def reject(self, bad: np.ndarray, message: str, detail: np.ndarray | None = None) -> None:
        """Make ``message`` the error when ``bad`` marks a line before the
        first one that a check failed on; ``detail`` at that line fills the
        message's ``{}``."""
        bad = bad[:self.bad_line]
        if bad.any():
            self.bad_line = int(bad.argmax())
            self.message = message if detail is None else message.format(detail[self.bad_line])

    def check(self) -> None:
        """Raise :class:`LogParseError` for the first line a check failed on."""
        if self.bad_line < self.count:
            raise LogParseError(self.message, row=self.first_row + self.bad_line)


def _windows(raw: np.ndarray, lo: np.ndarray, width: int) -> np.ndarray:
    """[n, width] copy of the bytes ``raw[lo:lo + width]`` of each line."""
    return np.lib.stride_tricks.sliding_window_view(raw, width)[lo]


def _first(raw: np.ndarray, byte: str, lo: np.ndarray, hi: np.ndarray, span: int) -> np.ndarray:
    """Per line, the position of the first ``byte`` in ``raw[lo:min(hi, lo + span)]``,
    else ``hi``."""
    at = lo + (_windows(raw, lo, span) == ord(byte)).argmax(axis=1)
    return np.where((raw[at] == ord(byte)) & (at < hi), at, hi)


def _rows_above(cells: np.ndarray, limit: int) -> np.ndarray:
    """Per row of ``cells``, whether one of them is above ``limit``; the
    rows are reduced one by one only when the whole matrix has such a cell."""
    if cells.max(initial=0) <= limit:
        return np.zeros(len(cells), dtype=bool)
    return cells.max(axis=1) > limit


def _number(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray, base: int, most: int):
    """Per line, the value in ``base`` of the last ``most`` bytes of the
    field ``raw[lo:hi]``, and whether one of them is not a digit of ``base``."""
    width = np.minimum(hi - lo, most)  # negative only on lines that a check rejects
    w = int(width.max(initial=0))
    # right-aligned, so that each column has one weight; cells before a
    # field's first byte are padding
    cells = _HEX.take(_windows(raw, hi - w, w))
    cells *= _LAST.take(width, axis=0)[:, _PAD - w:]
    return cells @ float(base) ** np.arange(w - 1, -1, -1), _rows_above(cells, base - 1)


def _times(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per line, the timestamp ``raw[lo:hi]``, digits with at most one ``.``,
    and whether it is malformed or not finite. Up to 18 digits on each side
    of the ``.`` that make an integer below 2**53 are read here, exactly;
    float() reads the text of the rest."""
    dot = _first(raw, ".", lo, hi, _PAD - 1)
    frac_lo = np.minimum(dot + 1, hi)
    decimals = hi - frac_lo
    whole, bad_whole = _number(raw, lo, dot, 10, 18)
    frac, bad_frac = _number(raw, frac_lo, hi, 10, 18)
    scale = _POW10[np.minimum(decimals, 18)]
    scaled = whole * scale + frac
    slow = (dot - lo > 18) | (decimals > 18) | (scaled >= _EXACT)
    times = scaled / scale
    bad = ~slow & (bad_whole | bad_frac | (dot - lo + decimals < 1))
    for k in np.flatnonzero(slow).tolist():
        text = raw[lo[k]:hi[k]].tobytes()
        times[k] = float(text) if text.replace(b".", b"", 1).isdigit() else math.inf
        bad[k] = not math.isfinite(times[k])
    return times, bad


def _payload(lines: _Lines, lo: np.ndarray, hi: np.ndarray):
    """(dlc, [n, 8] payload) of the fields ``raw[lo:hi]``, which must hold
    whole bytes, at most 8, as bare hex."""
    width = hi - lo
    lines.reject(width > 2 * MAX_PAYLOAD_BYTES, "payload longer than 8 bytes")
    cells = _HEX.take(_windows(lines.raw, lo, 2 * MAX_PAYLOAD_BYTES))
    cells *= _FIRST.take(np.clip(width, 0, 2 * MAX_PAYLOAD_BYTES),
                         axis=0)[:, :2 * MAX_PAYLOAD_BYTES]
    lines.reject(_rows_above(cells, 15), "invalid payload hex")
    lines.reject(width % 2 == 1, "odd payload hex length")
    pairs = cells.view("<u2")  # a byte's high nibble, then its low one
    return (width // 2).astype(np.uint8), (pairs << 4 | pairs >> 8).astype(np.uint8)


def _candump_columns(data: bytes, first_row: int) -> tuple[np.ndarray, ...]:
    """Columns of candump lines ``(<timestamp>) <interface> <id>#<data>``."""
    lines = _Lines(data, first_row, " ", 2, "line does not match candump format")
    raw, starts, ends = lines.raw, lines.starts, lines.ends
    iface, tail = lines.seps.T  # the spaces before the interface and before the id
    # the first "#" after the id's space, else the line's end
    hashes = np.append(np.flatnonzero(raw == ord("#")), len(raw))
    hashes = np.minimum(hashes[np.searchsorted(hashes, tail)], ends)
    lines.reject((raw[starts] != ord("(")) | (raw[iface - 1] != ord(")")) | (tail - iface < 2)
                 | (hashes == ends), "line does not match candump format")
    times, bad = _times(raw, starts + 1, iface - 1)
    lines.reject(bad, "malformed timestamp")
    digits = hashes - tail - 1
    ids, bad = _number(raw, tail + 1, hashes, 16, 8)
    lines.reject((digits < 1) | bad, "invalid hex id")
    extended = digits > 3
    lines.reject((digits > 8) | (ids > np.where(extended, CAN_EFF_MAX, CAN_SFF_MAX)),
                 "id out of range")
    dlc, payload = _payload(lines, hashes + 1, ends)
    lines.check()
    return times, ids.astype(np.int64), extended, dlc, payload


def _csv_columns(data: bytes, first_row: int) -> tuple[np.ndarray, ...]:
    """Columns of CSV rows ``<timestamp>,0x<id>,<dlc>,<payload>``."""
    lines = _Lines(data, first_row, ",", 3, "row arity mismatch")
    raw, starts, ends = lines.raw, lines.starts, lines.ends
    id_sep, dlc_sep, payload_sep = lines.seps.T  # the commas before each field
    times, bad = _times(raw, starts, id_sep)
    lines.reject(bad, "malformed timestamp")
    digits = dlc_sep - id_sep - 3
    ids, bad = _number(raw, id_sep + 3, dlc_sep, 16, 8)
    lines.reject((raw[id_sep + 1] != ord("0")) | ((raw[id_sep + 2] | 0x20) != ord("x"))
                 | (digits < 1) | bad, "invalid id")
    lines.reject((digits > 8) | (ids > CAN_EFF_MAX), "id out of range")
    dlc = raw[dlc_sep + 1] - ord("0")
    lines.reject((payload_sep - dlc_sep != 2) | (dlc > 9), "invalid dlc")
    lengths, payload = _payload(lines, payload_sep + 1, ends)
    lines.reject(dlc != lengths, "dlc {} does not match payload length", dlc)
    lines.check()
    return times, ids.astype(np.int64), ids > CAN_SFF_MAX, lengths, payload


# called with a batch's line count: the lines' label codes in line order, and their names
LabelSource = Callable[[int], tuple[np.ndarray, tuple[str, ...]]]


def _read(data: bytes, first_row: int, columns, header: bytes | None = None,
          labels: LabelSource | None = None) -> CanLog:
    """One log from ``data``, the bytes of whole lines, the last perhaps
    without its newline, after ``header``'s line when one is given. The
    lines are read at once by ``columns``; rows count from ``first_row``.
    With ``labels``, called once the lines are read, the log carries the
    label of each line with its frame."""
    if not isinstance(data, bytes):
        raise TypeError(f"a log is read from bytes, not {type(data).__name__}")
    if header is not None:
        line, _, data = data.partition(b"\n")
        if line != header:
            raise LogParseError(f"first line is not the header {header.decode()}")
    if not data:
        return _EMPTY
    # the byte pass has checked every frame, so only the order is made here
    parsed = columns(data, first_row)
    if labels is None:
        return _view(_sorted(parsed))
    codes, names = labels(len(parsed[0]))
    return _view(_sorted([*parsed, codes]), names)


def read_candump(data: bytes, *, first_row: int = 1,
                 labels: LabelSource | None = None) -> CanLog:
    """Parse candump text, the bytes of lines such as
    ``(1679000000.123456) can0 1F4#DEADBEEF``; output is sorted by
    timestamp, ties stable.

    Each line is ``(<timestamp>) <interface> <id>#<data>`` with single
    spaces, a printable ASCII interface without spaces, a 1-8 digit hex id
    in range, extended when it has more than 3 digits, and 0-8 whole
    payload bytes as bare hex. All lines are read at once; the error of the
    first bad line carries its 1-based row, counted from ``first_row``.
    With ``labels`` (see ``LabelSource``), the log is labeled.
    """
    return _read(data, first_row, _candump_columns, labels=labels)


def parse_csv_log(data: bytes, *, first_row: int = 1,
                  labels: LabelSource | None = None) -> CanLog:
    """Parse a CSV traffic log, the bytes of the header line
    ``timestamp,id,dlc,payload`` and the data lines after it, as
    :func:`write_csv_log` writes them; output is sorted by timestamp, ties
    stable.

    Each data line is ``<timestamp>,0x<id>,<dlc>,<payload>``: 1-8 hex id
    digits after ``0x`` or ``0X``, a one-digit dlc equal to the payload's
    byte count and the payload bytes as bare hex. All lines are read at
    once; the error of the first bad line carries its 1-based data row,
    counted from ``first_row``. With ``labels`` (see ``LabelSource``), the
    log is labeled.
    """
    return _read(data, first_row, _csv_columns, _CSV_HEADER_LINE, labels)


# Below this, floor(t) is an int64 of at most 10 digits. Python formats the
# timestamps at or above it, and -0.0, whose text keeps its sign.
_DIGIT_TIMES_BELOW = 1e10
_SUBUNITS = 10 ** TIMESTAMP_DECIMALS
# t - floor(t) is exact and its product with 1e6 is within 1.2e-10 of the
# exact product, so rint rounds it as .6f rounds t unless the exact product
# lies near a half: 3.5e-06 is a double below 3.5 us whose product rounds
# onto 3.5. Python formats those rows, and exact ties such as 0.0078125.
_HALF_MARGIN = 1e-6


def _padded(texts: list[str]) -> np.ndarray:
    """[n, w] ASCII bytes of ``texts``, each padded to the longest with byte
    0, which never occurs in the text."""
    cells = np.array([text.encode("ascii") for text in texts], dtype=bytes)
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize)


_BYTE_TEXT = _padded([f"{byte:02X}" for byte in range(256)])
_THREE_DIGITS = _padded([f"{k:03d}" for k in range(1000)])


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """[n, width] ASCII decimal digits of nonnegative int64 ``values``, right-aligned."""
    groups = -(-width // 3)
    triples = values[:, None] // 1000 ** np.arange(groups - 1, -1, -1) % 1000
    digits = _THREE_DIGITS.take(triples, axis=0).reshape(len(values), 3 * groups)
    return digits[:, 3 * groups - width:]


def _time_cells(times: np.ndarray) -> np.ndarray:
    """[n, w] bytes of each ``f"{t:.6f}"``, padded with byte 0: digits of
    ``floor(t)`` and ``rint(frac * 1e6)`` where they are exact, Python's
    text for the rest."""
    whole = np.floor(times)
    scaled = (times - whole) * _SUBUNITS
    python = (np.signbit(times) | (times >= _DIGIT_TIMES_BELOW)
              | (np.abs(scaled - (np.floor(scaled) + 0.5)) < _HALF_MARGIN))
    whole = np.where(python, 0.0, whole).astype(np.int64)
    sub = np.where(python, 0.0, np.rint(scaled)).astype(np.int64)
    carry = sub == _SUBUNITS
    whole += carry
    sub[carry] = 0
    width = len(str(int(whole.max(initial=0))))
    leading_zeros = np.maximum(whole, 1)[:, None] < 10 ** np.arange(width - 1, -1, -1)
    cells = np.concatenate((_digits(whole, width) * ~leading_zeros,
                            np.full((len(times), 1), ord("."), dtype=np.uint8),
                            _digits(sub, TIMESTAMP_DECIMALS)), axis=1)
    if python.any():
        texts = _padded([f"{t:.{TIMESTAMP_DECIMALS}f}" for t in times[python].tolist()])
        cells = np.pad(cells, ((0, 0), (0, max(texts.shape[1] - cells.shape[1], 0))))
        cells[python] = 0
        cells[python, :texts.shape[1]] = texts
    return cells


def write_csv_log(log: CanLog, sink: IO[str], *, header: bool = True) -> None:
    """Serialize a log to CSV: 6-decimal timestamps, 0x-hex ids, hex payload.
    Without ``header``, only the data lines are written: the batches of a
    log after its first go to the same sink this way.

    The lines of each ``CHUNK_LINES`` rows are built as one byte matrix,
    each field padded with byte 0, and written at once without the padding.
    """
    if header:
        sink.write(",".join(CSV_HEADER) + "\n")
    id_values = np.unique(log.ids)
    id_cells = _padded([f"0x{can_id:X}" for can_id in id_values.tolist()])
    for lo in range(0, len(log), CHUNK_LINES):
        rows = log[lo:lo + CHUNK_LINES]
        hexes = _BYTE_TEXT.take(rows.payload, axis=0).reshape(len(rows), 2 * MAX_PAYLOAD_BYTES)
        hexes *= np.arange(2 * MAX_PAYLOAD_BYTES) < 2 * rows.dlc[:, None]
        comma = np.full((len(rows), 1), ord(","), dtype=np.uint8)
        cells = np.concatenate((_time_cells(rows.times), comma,
                                id_cells[np.searchsorted(id_values, rows.ids)], comma,
                                (rows.dlc + ord("0"))[:, None], comma, hexes,
                                np.full((len(rows), 1), ord("\n"), dtype=np.uint8)), axis=1)
        sink.write(cells[cells != 0].tobytes().decode("ascii"))


def _file_batches(f: BinaryIO) -> Iterator[bytes]:
    """The bytes of each batch of lines of a binary file, with ``\\r\\n``
    and ``\\r`` turned into ``\\n`` as a text-mode file reads them. A batch
    is one ``read1`` of up to ``READ_BYTES``, cut after its last newline;
    the bytes after the cut start the next batch, and a read without a
    newline joins the next read. ``read1`` returns what a pipe holds, so
    lines are read as soon as they arrive. The last batch may lack its
    final newline."""
    pieces = []  # the bytes since the last cut
    while block := f.read1(READ_BYTES):
        while block.endswith(b"\r") and (more := f.read(1)):  # keep a \r\n whole
            block += more
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = block.rfind(b"\n") + 1
        if cut:
            data, pieces = b"".join([*pieces, block[:cut]]), [block[cut:]]
            yield data
        else:  # joined once, so that a long line costs linear time
            pieces.append(block)
    if tail := b"".join(pieces):
        yield tail


def iter_log(path: str, *, labels: LabelSource | None = None) -> Iterator[CanLog]:
    """A traffic log file as consecutive batches of lines in file order
    (see :func:`_file_batches`), each sorted by timestamp with ties stable,
    and labeled from ``labels``, read in step, when it is given.
    The first line tells the format: candump when it starts with ``(``,
    else CSV, whose header line is split off once and read before each
    batch. Each batch goes through :func:`read_candump` or
    :func:`parse_csv_log`; every line after the header is a frame, so rows
    count over the whole file by the frames of the batches before. Every
    error of the log names the file.

    A consumer that finds a frame earlier than the end of a window it
    already printed throws :class:`LateFrameError` in here, and it is
    raised again naming the row of the batch's first frame earlier than
    that end. The path ``-`` reads standard input, which is left open.
    """
    try:
        with (contextlib.nullcontext(sys.stdin.buffer) if path == "-"
              else open(path, "rb")) as f:
            row, header, reader = 1, b"", None
            for data in _file_batches(f):
                if reader is None:
                    if data.startswith(b"("):
                        reader, columns = read_candump, _candump_columns
                    else:
                        reader, columns = parse_csv_log, _csv_columns
                        header, newline, data = data.partition(b"\n")
                        header += newline
                log = reader(header + data, first_row=row, labels=labels)
                try:
                    yield log
                except LateFrameError as late:
                    times = columns(data, row)[0]
                    k = int(np.argmax(times < late.floor))
                    raise LateFrameError(float(times[k]), late.floor, row=row + k) from None
                row += len(log)
            if reader is None:  # an empty file is a CSV without its header
                parse_csv_log(b"")
    except LogParseError as err:
        err.args = (f"log file {path}: {err}",)
        raise


def load_log(path: str) -> CanLog:
    """Read a traffic log file: the batches of :func:`iter_log`, joined."""
    return join_logs(list(iter_log(path)))


def save_log(log: CanLog, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_csv_log(log, f)
