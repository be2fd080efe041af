"""CAN traffic logs held as columns, plus the two on-disk traffic formats.

A :class:`CanLog` stores its frames as five arrays and is a read-only
sequence of them: a :class:`CanFrame` is built only when a caller indexes
or iterates the log.

Two formats are supported: the candump text format
``(<sec.usec>) <iface> <ID>#<DATA>`` and a CSV format with header
``timestamp,id,dlc,payload`` (payload as contiguous hex, dlc = payload byte
count). Parsing is pure and never raises anything but :class:`LogParseError`
on bad input; logs are immutable value objects safe to share across threads.
A file is read as batches of lines (:func:`iter_log`), so that a consumer
can act on its start before the rest is read; :func:`load_log` joins them.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, BinaryIO, Iterable, Iterator

import numpy as np

CAN_SFF_MAX = 0x7FF  # 11-bit standard id
CAN_EFF_MAX = 0x1FFFFFFF  # 29-bit extended id
MAX_PAYLOAD_BYTES = 8

# candump convention: microsecond precision; bounds round-trip loss
TIMESTAMP_DECIMALS = 6

CSV_HEADER = ("timestamp", "id", "dlc", "payload")

# lines parsed per batch, about 400 kB of candump text: a batch's strings take
# about ten times that as Python objects, and larger batches parsed no faster
CHUNK_LINES = 1 << 13

# bytes read from a log file at a time; batches are cut from them at newlines
READ_BYTES = 1 << 20


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


def _check_frame(timestamp: float, can_id: int, payload_length: int,
                 extended: bool) -> None:
    """Raise the ``ValueError`` for the first frame invariant these fields break."""
    if not math.isfinite(timestamp) or timestamp < 0:
        raise ValueError(f"timestamp must be finite and >= 0, got {timestamp}")
    limit = CAN_EFF_MAX if extended else CAN_SFF_MAX
    if not 0 <= can_id <= limit:
        raise ValueError(f"id 0x{can_id:X} out of range for "
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
_DTYPES = (np.float64, np.int64, np.bool_, np.uint8, np.uint8)


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
    keeps read-only views of the arrays it is given.

    A log is a read-only sequence of its frames: ``len`` is O(1), an index
    builds one :class:`CanFrame`, a step-1 slice is a log sharing this
    log's memory, and a log equals another log with the same columns or a
    tuple of the same frames.
    """

    times: np.ndarray
    ids: np.ndarray
    extended: np.ndarray
    dlc: np.ndarray
    payload: np.ndarray

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
        if self.payload[np.arange(MAX_PAYLOAD_BYTES) >= self.dlc[:, None]].any():
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
        return _assemble([_columns([(f.timestamp, f.can_id, f.extended, f.payload)
                                    for f in frames])])

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
            # a slice of a valid log is valid, so nothing is checked again
            view = object.__new__(CanLog)
            for name in COLUMNS:
                object.__setattr__(view, name, getattr(self, name)[lo:max(lo, hi)])
            return view
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


def _columns(rows: list[tuple[float, int, bool, bytes]]) -> tuple[np.ndarray, ...]:
    """Log columns, in file order, of (timestamp, id, extended, payload) rows."""
    n = len(rows)
    dlc = np.fromiter((len(row[3]) for row in rows), dtype=np.uint8, count=n)
    return (np.fromiter((row[0] for row in rows), dtype=np.float64, count=n),
            np.fromiter((row[1] for row in rows), dtype=np.int64, count=n),
            np.fromiter((row[2] for row in rows), dtype=np.bool_, count=n),
            dlc, _payload_matrix(dlc, b"".join(row[3] for row in rows)))


def _sorted(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Columns in timestamp order; a stable sort, so ties keep their order."""
    times = columns[0]
    if (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        columns = [column[order] for column in columns]
    return columns


def _assemble(parts: list[tuple[np.ndarray, ...]]) -> CanLog:
    """One log from per-batch columns in file order (stable sort by timestamp)."""
    parts = parts or [_columns([])]
    return CanLog(*_sorted([column[0] if len(parts) == 1 else np.concatenate(column)
                            for column in zip(*parts)]))


def join_logs(logs: Sequence[CanLog]) -> CanLog:
    """One log of the frames of ``logs`` in their order, stably sorted by
    timestamp: the frames of a log read in batches, or a log's last frames
    and the batch that follows them. Nothing is checked again."""
    if len(logs) == 1:
        return logs[0]
    if not logs:
        return _assemble([])
    joined = object.__new__(CanLog)
    for name, column in zip(COLUMNS, _sorted([np.concatenate([getattr(log, name) for log in logs])
                                              for name in COLUMNS])):
        column.flags.writeable = False
        object.__setattr__(joined, name, column)
    return joined


_LAST_CHAR = operator.itemgetter(slice(-1, None))  # "" for an empty string


def _text_lines(raw: bytes, first_row: int | None) -> list[str]:
    """The lines of UTF-8 bytes, each with its newline; bytes that are not
    UTF-8 raise :class:`LogParseError` naming their row, counted from
    ``first_row`` (None for a header)."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise LogParseError(f"text is not UTF-8 ({err.reason})",
                            row=first_row and first_row + raw.count(b"\n", 0, err.start)
                            ) from None
    return list(io.StringIO(text))


def _read(stream: Iterable[str] | bytes, first_row: int, not_before: float,
          strict, slow) -> CanLog:
    """One log from a stream of lines, parsed in batches of ``CHUNK_LINES``,
    or from the bytes of whole lines, parsed as one batch; rows count from
    ``first_row``.

    A batch whose elements all end in a newline, but perhaps the last, goes
    to ``strict(text)`` joined, and the columns it returns, one row per line
    of the text, are kept when they hold one row per element: then each
    element is one whole line. Bytes go to ``strict`` as they are. Otherwise
    ``slow(lines, first_row, not_before)`` parses the batch and may take
    more of ``lines``. Either returns the batch's columns, and either raises
    :class:`LateFrameError` for a frame earlier than ``not_before``.
    """
    if not isinstance(stream, bytes):
        return _assemble(list(_batches(iter(stream), first_row, not_before, strict, slow)))
    columns = strict(stream if stream.endswith(b"\n") else stream + b"\n") if stream else None
    if columns is None:
        return _assemble([slow(_text_lines(stream, first_row), first_row, not_before)])
    return _assemble([_in_order(columns, first_row, not_before)])


def _batches(lines: Iterator[str], row: int, not_before: float, strict, slow):
    """The columns of each batch of ``CHUNK_LINES`` lines, as :func:`_read` reads them."""
    while batch := list(itertools.islice(lines, CHUNK_LINES)):
        text = "".join(batch)
        if not text.endswith("\n"):
            text += "\n"
        columns = strict(text) if set(map(_LAST_CHAR, batch[:-1])) <= {"\n"} else None
        if columns is None or len(columns[0]) != len(batch):
            yield slow(batch, row, not_before)
        else:
            yield _in_order(columns, row, not_before)
        row += len(batch)


def _in_order(columns: tuple[np.ndarray, ...], row: int, not_before: float):
    """The columns of a strict batch, one row per line from ``row``; a frame
    earlier than ``not_before`` raises :class:`LateFrameError` naming its row."""
    late = np.flatnonzero(columns[0] < not_before)
    if late.size:
        raise LateFrameError(float(columns[0][late[0]]), not_before, row=row + int(late[0]))
    return columns


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


def _lines(text: str | bytes, sep: str, count: int):
    """(padded bytes, line starts, newline positions, [n, count] separator
    positions) of a batch text of printable ASCII lines, each ending in a
    newline and holding ``count`` ``sep`` bytes after its first byte; else
    None. Positions index the padded bytes."""
    if isinstance(text, str):
        try:
            text = text.encode("ascii")
        except UnicodeEncodeError:
            return None
    raw = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    n = ends.shape[0]
    # newlines are the only bytes outside " " to "~" (uint8 arithmetic wraps)
    if not n or raw[-1] != 10 or np.count_nonzero(raw - 32 > 94) != n:
        return None
    seps = np.flatnonzero(raw == ord(sep))
    if seps.shape[0] != count * n:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    seps = seps.reshape(n, count)
    # sorted positions: each line's first and last separator bound the others
    if (seps[:, 0] <= starts).any() or (seps[:, -1] > ends).any():
        return None
    pad = np.zeros(_PAD, dtype=np.uint8)
    return np.concatenate((pad, raw, pad)), starts + _PAD, ends + _PAD, seps + _PAD


def _windows(raw: np.ndarray, lo: np.ndarray, width: int) -> np.ndarray:
    """[n, width] copy of the bytes ``raw[lo:lo + width]`` of each line."""
    return np.lib.stride_tricks.sliding_window_view(raw, width)[lo]


def _first(raw: np.ndarray, byte: str, lo: np.ndarray, hi: np.ndarray, span: int) -> np.ndarray:
    """Per line, the position of the first ``byte`` in ``raw[lo:min(hi, lo + span)]``,
    else ``hi``."""
    at = lo + (_windows(raw, lo, span) == ord(byte)).argmax(axis=1)
    return np.where((raw[at] == ord(byte)) & (at < hi), at, hi)


def _number(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray, base: int, most: int):
    """Per line, the value of the digit field ``raw[lo:hi]`` in ``base``; None
    when a field is longer than ``most`` or holds a byte that is not a digit
    of its base."""
    width = hi - lo
    w = int(width.max(initial=0))
    if w > most:
        return None
    # right-aligned, so that each column has one weight; cells before a
    # field's first byte are padding
    cells = _HEX.take(_windows(raw, hi - w, w))
    cells *= _LAST.take(width, axis=0)[:, _PAD - w:]
    if cells.max(initial=0) >= base:
        return None
    return cells @ float(base) ** np.arange(w - 1, -1, -1)


def _times(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """Per line, the timestamp ``raw[lo:hi]``: digits with at most one ``.``,
    read exactly when they make an integer below 2**53; else None."""
    dot = _first(raw, ".", lo, hi, _PAD - 1)
    frac_lo = np.minimum(dot + 1, hi)
    decimals = hi - frac_lo
    if (dot - lo + decimals < 1).any():  # no digit
        return None
    whole, frac = _number(raw, lo, dot, 10, 18), _number(raw, frac_lo, hi, 10, 18)
    if whole is None or frac is None:
        return None
    scale = _POW10[decimals]
    scaled = whole * scale + frac
    if (scaled >= _EXACT).any():
        return None
    return scaled / scale


def _payload(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(dlc, [n, 8] payload) of the hex fields ``raw[lo:hi]``, whole bytes
    and at most 8; else None."""
    width = hi - lo
    if (width % 2).any() or (width > 2 * MAX_PAYLOAD_BYTES).any():
        return None
    cells = _HEX.take(_windows(raw, lo, 2 * MAX_PAYLOAD_BYTES))
    cells *= _FIRST.take(width, axis=0)[:, :2 * MAX_PAYLOAD_BYTES]
    if cells.max(initial=0) > 15:
        return None
    pairs = cells.view("<u2")  # a byte's high nibble, then its low one
    return (width // 2).astype(np.uint8), (pairs << 4 | pairs >> 8).astype(np.uint8)


def _batch_columns(times, ids, extended, payload) -> tuple[np.ndarray, ...] | None:
    """Log columns of converted fields, or None when a conversion failed or
    an id is out of range for its addressing."""
    if (times is None or ids is None or payload is None
            or (ids > np.where(extended, CAN_EFF_MAX, CAN_SFF_MAX)).any()):
        return None
    return (times, ids.astype(np.int64), extended, *payload)


_CANDUMP_RE = re.compile(
    r"^\s*\((?P<ts>[^)]*)\)\s+(?P<chan>\S+)\s+(?P<id>[^#\s]*)#(?P<data>\S*)\s*$"
)
# field grammars, ASCII only: float() and int() alone would also take "1_0"
# and non-ASCII digits
_TIMESTAMP_RE = re.compile(r"\s*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\s*",
                           re.ASCII)
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")
# CSV ids: 0x-prefixed hex, else decimal
_CSV_ID_RE = re.compile(r"\s*(?:0[xX](?P<hex>[0-9A-Fa-f]+)|(?P<dec>[0-9]+))\s*", re.ASCII)
_DLC_RE = re.compile(r"\s*[0-9]+\s*", re.ASCII)


def _candump_id(text: str) -> tuple[int, bool]:
    """A candump hex id and whether it is extended: more than 3 digits."""
    return int(text, 16), len(text) > 3


def _candump_fields(line: str) -> tuple[float, int, bool, bytes]:
    m = _CANDUMP_RE.match(line)
    if m is None:
        raise LogParseError("line does not match candump format (offset 0)")

    ts_text = m.group("ts")
    timestamp = float(ts_text) if _TIMESTAMP_RE.fullmatch(ts_text) else math.nan
    if not math.isfinite(timestamp) or timestamp < 0:
        raise LogParseError(f"malformed timestamp (offset {m.start('ts')})")

    id_text = m.group("id")
    if not id_text or not _HEX_RE.fullmatch(id_text):
        raise LogParseError(f"invalid hex id (offset {m.start('id')})")
    if len(id_text) > 8:
        raise LogParseError(f"id out of range (offset {m.start('id')})")
    can_id, extended = _candump_id(id_text)
    if can_id > (CAN_EFF_MAX if extended else CAN_SFF_MAX):
        raise LogParseError(f"id out of range (offset {m.start('id')})")

    payload = _parse_payload_hex(m.group("data"), f" (offset {m.start('data')})")
    return timestamp, can_id, extended, payload


def parse_candump_line(line: str) -> CanFrame:
    """Parse one candump log line, e.g. ``(1679000000.123456) can0 1F4#DEADBEEF``.

    The id is hexadecimal; 1-3 digits are taken as a standard (11-bit)
    frame, more as extended. Raises :class:`LogParseError` with the byte
    offset of the offending field on malformed input.
    """
    timestamp, can_id, extended, payload = _candump_fields(line)
    return CanFrame(timestamp, can_id, payload, extended)


def _parse_payload_hex(text: str, where: str = "", row: int | None = None) -> bytes:
    """Payload bytes of a hex field; ``where`` ends each error message."""
    if not _HEX_RE.fullmatch(text):
        raise LogParseError("invalid payload hex" + where, row=row)
    if len(text) % 2:
        raise LogParseError("odd payload hex length" + where, row=row)
    if len(text) > 2 * MAX_PAYLOAD_BYTES:
        raise LogParseError("payload longer than 8 bytes" + where, row=row)
    return bytes.fromhex(text)


def _candump_strict(text: str | bytes) -> tuple[np.ndarray, ...] | None:
    """Columns of a batch text of candump lines in a strict form of the
    format, ``(<timestamp>) <interface> <id>#<data>`` with single spaces, a
    printable ASCII interface, a timestamp that ``_times`` reads, a 1-8 digit
    hex id in range and whole payload bytes; else None."""
    lines = _lines(text, " ", 2)
    if lines is None:
        return None
    raw, starts, ends, seps = lines
    iface, tail = seps.T  # the spaces before the interface and before the id
    hashes = _first(raw, "#", tail + 2, ends, 8)  # after a 1-8 digit id
    if ((raw[starts] != ord("(")) | (raw[iface - 1] != ord(")")) | (tail - iface < 2)
            | (hashes == ends)).any():
        return None
    # more than 3 id digits is extended, as in _candump_id
    return _batch_columns(_times(raw, starts + 1, iface - 1), _number(raw, tail + 1, hashes, 16, 8),
                          hashes - tail > 4, _payload(raw, hashes + 1, ends))


def _candump_lines(lines: list[str], first_row: int,
                   not_before: float = -math.inf) -> tuple[np.ndarray, ...]:
    """Columns of candump lines parsed one by one; errors name the row."""
    rows = []
    for lineno, line in enumerate(lines, start=first_row):
        if not line.strip():
            continue
        try:
            rows.append(_candump_fields(line))
        except LogParseError as err:
            raise LogParseError(str(err), row=lineno) from err
        if rows[-1][0] < not_before:
            raise LateFrameError(rows[-1][0], not_before, row=lineno)
    return _columns(rows)


def read_candump(stream: Iterable[str] | bytes, *, first_row: int = 1,
                 not_before: float = -math.inf) -> CanLog:
    """Parse candump text, a stream of lines or the bytes of whole lines as
    :func:`iter_log` reads them; blank lines are skipped.

    Lines are parsed in batches of ``CHUNK_LINES``: a batch of strict lines
    fills the columns at once, any other batch goes line by line, so errors
    carry the 1-based line number, counted from ``first_row``. A frame
    earlier than ``not_before`` is a :class:`LateFrameError`.
    """
    return _read(stream, first_row, not_before, _candump_strict, _candump_lines)


def _csv_layout(header: list[str]) -> tuple[int, int, int, int | None, int]:
    """(timestamp, id, payload, dlc or None) column indices and the width."""
    header = [h.strip() for h in header]
    columns = {name: i for i, name in enumerate(header)}
    for name in ("timestamp", "id", "payload"):
        if name not in columns:
            raise LogParseError(f"missing column '{name}'")
    return (columns["timestamp"], columns["id"], columns["payload"],
            columns.get("dlc"), len(header))


def _csv_strict(text: str | bytes) -> tuple[np.ndarray, ...] | None:
    """Columns of a batch text of CSV lines under the written header in a
    strict form, ``<timestamp>,<id>,<dlc>,<payload>`` with a timestamp that
    ``_times`` reads, an id of ``0x`` and 1-8 hex digits in range, as
    :func:`write_csv_log` writes it, a one-digit dlc equal to the payload
    length and whole payload bytes without a prefix; else None."""
    lines = _lines(text, ",", 3)
    if lines is None:
        return None
    raw, starts, ends, seps = lines
    id_sep, dlc_sep, payload_sep = seps.T  # the commas before each field
    if ((raw[id_sep + 1] != ord("0")) | ((raw[id_sep + 2] | 0x20) != ord("x"))).any():
        return None
    ids = _number(raw, id_sep + 3, dlc_sep, 16, 8)
    payload = _payload(raw, payload_sep + 1, ends)
    if (ids is None or payload is None
            or ((dlc_sep - id_sep < 4) | (payload_sep - dlc_sep != 2)
                | (raw[dlc_sep + 1] - ord("0") != payload[0])).any()):
        return None
    return _batch_columns(_times(raw, starts, id_sep), ids, ids > CAN_SFF_MAX, payload)


def _decimal(text: str, name: str, row: int) -> int:
    """The value of a decimal field; one with more significant digits than
    int() converts is far beyond any CAN id or dlc."""
    try:
        return int(text.strip().lstrip("0") or "0")
    except ValueError:
        raise LogParseError(f"{name} out of range", row=row) from None


def _csv_rows(lines: Iterable[str], layout: tuple[int, int, int, int | None, int],
              first_row: int, not_before: float = -math.inf) -> tuple[np.ndarray, ...]:
    """Columns of CSV records parsed one by one; errors, a ``csv.Error``
    included, name the data row, counted from ``first_row``."""
    import csv

    ts_idx, id_idx, payload_idx, dlc_idx, width = layout
    reader = csv.reader(lines)
    rows = []
    for rownum in itertools.count(first_row):
        try:
            fields = next(reader)
        except StopIteration:
            break
        except csv.Error as err:
            raise LogParseError(f"malformed CSV record: {err}", row=rownum) from None
        if not fields:
            continue
        if len(fields) != width:
            raise LogParseError("row arity mismatch", row=rownum)
        if not _TIMESTAMP_RE.fullmatch(fields[ts_idx]):
            raise LogParseError("unsortable timestamp", row=rownum)
        timestamp = float(fields[ts_idx])
        m = _CSV_ID_RE.fullmatch(fields[id_idx])
        if m is None:
            raise LogParseError("invalid id", row=rownum)
        can_id = int(m["hex"], 16) if m["hex"] else _decimal(m["dec"], "id", rownum)
        if can_id > CAN_EFF_MAX:
            raise LogParseError("id out of range", row=rownum)
        payload_text = fields[payload_idx].strip()
        if payload_text[:2] in ("0x", "0X"):
            payload_text = payload_text[2:]
        payload = _parse_payload_hex(payload_text, row=rownum)
        if dlc_idx is not None:
            if not _DLC_RE.fullmatch(fields[dlc_idx]):
                raise LogParseError("invalid dlc", row=rownum)
            dlc = _decimal(fields[dlc_idx], "dlc", rownum)
            if dlc > MAX_PAYLOAD_BYTES:
                raise LogParseError("dlc out of range", row=rownum)
            if dlc != len(payload):
                raise LogParseError(
                    f"dlc {dlc} does not match payload length {len(payload)}", row=rownum)
        extended = can_id > CAN_SFF_MAX
        try:
            _check_frame(timestamp, can_id, len(payload), extended)
        except ValueError as err:
            raise LogParseError(str(err), row=rownum) from err
        if timestamp < not_before:
            raise LateFrameError(timestamp, not_before, row=rownum)
        rows.append((timestamp, can_id, extended, payload))
    return _columns(rows)


def parse_csv_log(stream: Iterable[str] | bytes, *, first_row: int = 1,
                  not_before: float = -math.inf) -> CanLog:
    """Parse a CSV traffic log, a stream of lines or the bytes of whole lines
    as :func:`iter_log` reads them; output is sorted by timestamp, ties stable.

    Columns are found by header name in any order and extra columns are
    ignored; ``dlc`` is optional and, when present, must match the payload
    length. The payload may carry a ``0x`` prefix. Errors carry the 1-based
    data row number, counted from ``first_row``. A frame earlier than
    ``not_before`` is a :class:`LateFrameError`.

    Under the header that :func:`write_csv_log` writes, data lines are
    parsed in batches of ``CHUNK_LINES``, and batches of strict lines fill
    the columns at once. From the first batch that is not, and under any
    other header from the start, the rest of the stream goes through the CSV
    reader record by record, because a quoted field may span lines.
    """
    import csv

    data = None  # the bytes after the header line, when read as bytes
    if isinstance(stream, bytes):
        head, newline, data = stream.partition(b"\n")
        stream = _text_lines(head + newline, None)
        if b'"' in head or b'"' in data:  # a quoted field may span lines
            stream += _text_lines(data, first_row)
            data = None
    lines = iter(stream)
    try:
        header = next(csv.reader(lines))
    except StopIteration:
        raise LogParseError("missing header row") from None
    except csv.Error as err:
        raise LogParseError(f"malformed header row: {err}") from None
    layout = _csv_layout(header)
    strict = _csv_strict if header == list(CSV_HEADER) else (lambda text: None)
    return _read(lines if data is None else data, first_row, not_before, strict,
                 lambda batch, row, floor: _csv_rows(itertools.chain(batch, lines), layout,
                                                     row, floor))


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


def write_csv_log(log: CanLog, sink: IO[str]) -> None:
    """Serialize a log to CSV: 6-decimal timestamps, 0x-hex ids, hex payload.

    The lines of each ``CHUNK_LINES`` rows are built as one byte matrix,
    each field padded with byte 0, and written at once without the padding.
    """
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


def _file_batches(f: BinaryIO) -> Iterator[tuple[bytes, int]]:
    """(bytes, first line number) of each run of ``CHUNK_LINES`` lines of a
    binary file read up to ``READ_BYTES`` at a time, with ``\\r\\n`` and
    ``\\r`` turned into ``\\n`` as a text-mode file reads them. The last run
    may be shorter and lack its final newline. ``read1`` returns what a pipe
    holds, so a batch is cut as soon as its lines have arrived."""
    row, size = 1, 0
    pieces, newlines = [], []  # the bytes since the last cut, and their newlines
    while block := f.read1(READ_BYTES):
        while block.endswith(b"\r") and (more := f.read(1)):  # keep a \r\n whole
            block += more
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        newlines.append(size + np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10))
        pieces.append(block)
        size += len(block)
        ends = np.concatenate(newlines)
        newlines = [ends]
        if ends.size < CHUNK_LINES:
            continue
        data = b"".join(pieces)
        cuts = [0, *(ends[CHUNK_LINES - 1::CHUNK_LINES] + 1).tolist()]
        for lo, hi in zip(cuts, cuts[1:]):
            yield data[lo:hi], row
            row += CHUNK_LINES
        pieces, size = [data[cuts[-1]:]], len(data) - cuts[-1]
        newlines = [ends[(len(cuts) - 1) * CHUNK_LINES:] - cuts[-1]]
    if size:
        yield b"".join(pieces), row


def _checked(parse) -> Iterator[CanLog]:
    """Yield the batch ``parse()`` reads. A :class:`LateFrameError` thrown
    back in is raised again by reading the batch once more with its floor,
    which names the row of the first frame earlier than it."""
    log = parse()
    try:
        yield log
    except LateFrameError as late:
        parse(not_before=late.floor)
        raise


def iter_log(path: str) -> Iterator[CanLog]:
    """A traffic log file as consecutive batches of ``CHUNK_LINES`` lines in
    file order, each sorted by timestamp with ties stable. The first
    non-blank line tells the format: candump when it starts with ``(``,
    else CSV. Each batch goes through :func:`read_candump` or
    :func:`parse_csv_log`, rows count over the whole file, and every error
    names the file.

    A CSV batch that holds a quote character is read together with the rest
    of the file, because a quoted field may span lines; in any other batch
    each line is one record. A consumer that finds a frame earlier than the
    end of a window it already printed throws :class:`LateFrameError` in
    here, so that the error names the frame's row.
    """
    try:
        with open(path, "rb") as f:
            batches = _file_batches(f)
            head, first = [], None  # batches read up to the first non-blank line
            for raw, row in batches:
                head.append((raw, row))
                # bytes that are not UTF-8 are an error of the parse below
                lines = io.StringIO(raw.decode("utf-8", "replace"))
                first = next((line.lstrip() for line in lines if line.strip()), None)
                if first is not None:
                    break
            # an empty file is one empty batch, which holds no CSV header
            batches = itertools.chain(head or [(b"", 1)], batches)
            if first is not None and first.startswith("("):
                for raw, row in batches:
                    yield from _checked(functools.partial(read_candump, raw, first_row=row))
                return
            header = head[0][0].partition(b"\n")[0] + b"\n" if head else b""
            for raw, row in batches:
                if b'"' in raw:
                    raw += b"".join(more for more, _ in batches)
                text = raw if row == 1 else header + raw
                yield from _checked(functools.partial(parse_csv_log, text,
                                                      first_row=max(row - 1, 1)))
    except LogParseError as err:
        err.args = (f"log file {path}: {err}",)
        raise


def load_log(path: str) -> CanLog:
    """Read a traffic log file: the batches of :func:`iter_log`, joined."""
    return join_logs(list(iter_log(path)))


def save_log(log: CanLog, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_csv_log(log, f)
