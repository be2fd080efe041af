"""CAN traffic logs held as columns, plus the two on-disk traffic formats.

A :class:`CanLog` stores its frames as five arrays and is a read-only
sequence of them: a :class:`CanFrame` is built only when a caller indexes
or iterates the log.

Two formats are supported: the candump text format
``(<sec.usec>) <iface> <ID>#<DATA>`` and a CSV format with header
``timestamp,id,dlc,payload`` (payload as contiguous hex, dlc = payload byte
count). Parsing is pure and never raises anything but :class:`LogParseError`
on bad input; logs are immutable value objects safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

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


class LogParseError(ValueError):
    """Malformed traffic input, with the offending data row attached when known."""

    def __init__(self, message: str, *, row: int | None = None) -> None:
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


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


def _assemble(parts: list[tuple[np.ndarray, ...]]) -> CanLog:
    """One log from per-batch columns in file order (stable sort by timestamp)."""
    columns = [np.concatenate(column) for column in zip(*(parts or [_columns([])]))]
    times = columns[0]
    if (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        columns = [column[order] for column in columns]
    return CanLog(*columns)


def _read(lines: Iterator[str], strict, slow) -> CanLog:
    """One log from a stream of lines, parsed in batches of ``CHUNK_LINES``.

    A batch whose elements are each one whole line goes to ``strict(text)``
    with the lines joined; when that returns None, or the batch is not such
    lines, ``slow(batch, first_row)`` parses it and may take more of
    ``lines``. Either returns the batch's columns.
    """
    parts = []
    row = 1
    while batch := list(itertools.islice(lines, CHUNK_LINES)):
        text = "".join(batch)
        if not text.endswith("\n"):
            text += "\n"
        columns = None
        if (text.count("\n") == len(batch)
                and all(map(str.endswith, batch[:-1], itertools.repeat("\n")))):
            columns = strict(text)
        parts.append(slow(batch, row) if columns is None else columns)
        row += len(batch)
    return _assemble(parts)


def _strict_columns(stamps: list[str], id_texts: list[str], parse_id,
                    payloads: list[str]) -> tuple[np.ndarray, ...] | None:
    """Log columns of a strict batch's field texts: unsigned decimal
    timestamps, id texts that ``parse_id`` turns into (id, extended), once per
    distinct text, and even-length hex payloads of at most 8 bytes. None when
    a timestamp is not finite or an id is out of range for its addressing."""
    index = {text: k for k, text in enumerate(dict.fromkeys(id_texts))}
    distinct = np.array([parse_id(text) for text in index], dtype=np.int64)
    at = np.fromiter(map(index.__getitem__, id_texts), dtype=np.intp, count=len(id_texts))
    ids, extended = distinct[at, 0], distinct[at, 1].astype(np.bool_)
    times = np.fromiter(map(float, stamps), dtype=np.float64, count=len(stamps))
    if (not np.isfinite(times).all()
            or (ids > np.where(extended, CAN_EFF_MAX, CAN_SFF_MAX)).any()):
        return None
    dlc = np.fromiter(map(len, payloads), dtype=np.uint8, count=len(payloads)) // 2
    return times, ids, extended, dlc, _payload_matrix(dlc, bytes.fromhex("".join(payloads)))


_CANDUMP_RE = re.compile(
    r"^\s*\((?P<ts>[^)]*)\)\s+(?P<chan>\S+)\s+(?P<id>[^#\s]*)#(?P<data>\S*)\s*$"
)
# A strict subset of the candump grammar, one whole line per match: single
# spaces, an ASCII interface name, a 1-8 digit hex id and whole payload bytes.
# A batch that these matches tile parses field by field with the same values
# that parse_candump_line gives; any other batch goes line by line.
_CANDUMP_STRICT_RE = re.compile(
    r"\([0-9]+\.[0-9]+\) [!-~]+ [0-9A-Fa-f]{1,8}#(?:[0-9A-Fa-f]{2}){0,8}\n")
# The same for CSV data lines under the header that write_csv_log writes:
# unsigned decimal timestamps, 0x-hex or decimal ids of at most 8 or 10
# digits, a one-digit dlc and whole payload bytes without a prefix.
_CSV_STRICT_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?,(?:0[xX][0-9A-Fa-f]{1,8}|[0-9]{1,10}),"
                            r"[0-8],(?:[0-9A-Fa-f]{2}){0,8}\n")
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


def _candump_strict(text: str) -> tuple[np.ndarray, ...] | None:
    """Columns of a batch text whose lines all match ``_CANDUMP_STRICT_RE``
    and hold finite timestamps and in-range ids; else None."""
    if _CANDUMP_STRICT_RE.sub("", text):
        return None
    tokens = text.split()  # "(ts)", interface, "ID#DATA" per line
    fields = "#".join(tokens[2::3]).split("#")
    return _strict_columns("".join(tokens[0::3])[1:-1].split(")("), fields[0::2],
                           _candump_id, fields[1::2])


def _candump_lines(lines: list[str], first_row: int) -> tuple[np.ndarray, ...]:
    """Columns of candump lines parsed one by one; errors name the row."""
    rows = []
    for lineno, line in enumerate(lines, start=first_row):
        if not line.strip():
            continue
        try:
            rows.append(_candump_fields(line))
        except LogParseError as err:
            raise LogParseError(str(err), row=lineno) from err
    return _columns(rows)


def read_candump(stream: Iterable[str]) -> CanLog:
    """Parse a whole candump text stream of lines; blank lines are skipped.

    Lines are parsed in batches of ``CHUNK_LINES``: a batch of strict lines
    fills the columns at once, any other batch goes line by line, so errors
    carry the 1-based line number within the whole stream.
    """
    return _read(iter(stream), _candump_strict, _candump_lines)


def _csv_layout(header: list[str]) -> tuple[int, int, int, int | None, int]:
    """(timestamp, id, payload, dlc or None) column indices and the width."""
    header = [h.strip() for h in header]
    columns = {name: i for i, name in enumerate(header)}
    for name in ("timestamp", "id", "payload"):
        if name not in columns:
            raise LogParseError(f"missing column '{name}'")
    return (columns["timestamp"], columns["id"], columns["payload"],
            columns.get("dlc"), len(header))


def _csv_id(text: str) -> tuple[int, bool]:
    """A strict CSV id and whether it is extended: above the 11-bit range."""
    can_id = int(text[2:], 16) if text[:2] in ("0x", "0X") else int(text)
    return can_id, can_id > CAN_SFF_MAX


def _csv_strict(text: str) -> tuple[np.ndarray, ...] | None:
    """Columns of a batch text under the written header whose lines all
    match ``_CSV_STRICT_RE`` and hold finite timestamps, in-range ids and a
    dlc equal to the payload length; else None."""
    if _CSV_STRICT_RE.sub("", text):
        return None
    fields = text.replace("\n", ",").split(",")[:-1]  # the text ends in a newline
    columns = _strict_columns(fields[0::4], fields[1::4], _csv_id, fields[3::4])
    stated = np.frombuffer("".join(fields[2::4]).encode("ascii"), dtype=np.uint8) - ord("0")
    if columns is None or not np.array_equal(stated, columns[3]):
        return None
    return columns


def _csv_rows(lines: Iterable[str], layout: tuple[int, int, int, int | None, int],
              first_row: int) -> tuple[np.ndarray, ...]:
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
        can_id = int(m["hex"], 16) if m["hex"] else int(m["dec"])
        payload_text = fields[payload_idx].strip()
        if payload_text[:2] in ("0x", "0X"):
            payload_text = payload_text[2:]
        payload = _parse_payload_hex(payload_text, row=rownum)
        if dlc_idx is not None:
            if not _DLC_RE.fullmatch(fields[dlc_idx]):
                raise LogParseError("invalid dlc", row=rownum)
            dlc = int(fields[dlc_idx])
            if dlc != len(payload):
                raise LogParseError(
                    f"dlc {dlc} does not match payload length {len(payload)}", row=rownum)
        extended = can_id > CAN_SFF_MAX
        try:
            _check_frame(timestamp, can_id, len(payload), extended)
        except ValueError as err:
            raise LogParseError(str(err), row=rownum) from err
        rows.append((timestamp, can_id, extended, payload))
    return _columns(rows)


def parse_csv_log(stream: Iterable[str]) -> CanLog:
    """Parse a CSV traffic log; output is sorted by timestamp, ties stable.

    Columns are found by header name in any order and extra columns are
    ignored; ``dlc`` is optional and, when present, must match the payload
    length. The payload may carry a ``0x`` prefix. Errors carry the 1-based
    data row number.

    Under the header that :func:`write_csv_log` writes, data lines are
    parsed in batches of ``CHUNK_LINES``, and batches of strict lines fill
    the columns at once. From the first batch that is not, and under any
    other header from the start, the rest of the stream goes through the CSV
    reader record by record, because a quoted field may span lines.
    """
    import csv

    lines = iter(stream)
    try:
        header = next(csv.reader(lines))
    except StopIteration:
        raise LogParseError("missing header row") from None
    except csv.Error as err:
        raise LogParseError(f"malformed header row: {err}") from None
    layout = _csv_layout(header)
    strict = _csv_strict if header == list(CSV_HEADER) else (lambda text: None)
    return _read(lines, strict,
                 lambda batch, row: _csv_rows(itertools.chain(batch, lines), layout, row))


def write_csv_log(log: CanLog, sink: IO[str]) -> None:
    """Serialize a log to CSV: 6-decimal timestamps, 0x-hex ids, hex payload."""
    sink.write(",".join(CSV_HEADER) + "\n")
    id_texts = {can_id: f"0x{can_id:X}" for can_id in np.unique(log.ids).tolist()}
    width = 2 * MAX_PAYLOAD_BYTES
    for lo in range(0, len(log), CHUNK_LINES):
        rows = log[lo:lo + CHUNK_LINES]
        hexes = rows.payload.tobytes().hex().upper()
        sink.write("".join(
            f"{t:.{TIMESTAMP_DECIMALS}f},{id_texts[can_id]},{dlc},"
            f"{hexes[k * width:k * width + 2 * dlc]}\n"
            for k, (t, can_id, dlc) in enumerate(zip(rows.times.tolist(), rows.ids.tolist(),
                                                     rows.dlc.tolist()))))


def load_log(path: str) -> CanLog:
    """Read a traffic log file, sniffing candump vs CSV from the first line."""
    with open(path, "r", encoding="utf-8") as f:
        head = next((line.lstrip() for line in f if line.strip()), "")
        f.seek(0)
        return read_candump(f) if head.startswith("(") else parse_csv_log(f)


def save_log(log: CanLog, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_csv_log(log, f)
