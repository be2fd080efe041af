"""CAN traffic logs held as columns, plus the two on-disk traffic formats.

A :class:`CanLog` stores its frames as five arrays; ``log.frames`` is a
read-only sequence view over them, and a :class:`CanFrame` is built only
when a caller indexes or iterates that view.

Two formats are supported: the candump text format
``(<sec.usec>) <iface> <ID>#<DATA>`` and a CSV format with header
``timestamp,id,dlc,payload`` (payload as contiguous hex, dlc = payload byte
count). Parsing is pure and never raises anything but :class:`LogParseError`
on bad input; logs are immutable value objects safe to share across threads.
"""

from __future__ import annotations

import functools
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
    """Malformed traffic input, with the offending line/row attached."""

    def __init__(
        self,
        message: str,
        *,
        line: str | None = None,
        offset: int | None = None,
        row: int | None = None,
    ) -> None:
        context = []
        if row is not None:
            context.append(f"row {row}")
        if offset is not None:
            context.append(f"offset {offset}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.line = line
        self.offset = offset
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
class CanLog:
    """A timestamp-sorted CAN log held as columns; ties keep input order.

    ``times`` f8 seconds, ``ids`` i8, ``extended`` bool, ``dlc`` u1 payload
    byte count and ``payload`` u1 ``[n, 8]``, zero past ``dlc``. The log
    keeps read-only views of the arrays it is given.
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
    def frames(self) -> "FrameView":
        return FrameView(self)

    @classmethod
    def from_frames(cls, frames: Iterable[CanFrame]) -> "CanLog":
        """Build a log from frames in any order (stable sort by timestamp)."""
        return _assemble([_columns([(f.timestamp, f.can_id, f.extended, f.payload)
                                    for f in frames])])

    def rows(self, lo: int, hi: int) -> "CanLog":
        """Rows ``[lo, hi)`` as a log sharing this log's memory. A slice of a
        valid log is valid, so nothing is checked again."""
        view = object.__new__(CanLog)
        for name in COLUMNS:
            object.__setattr__(view, name, getattr(self, name)[lo:hi])
        return view

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) timestamp; raises on an empty log."""
        if not len(self):
            raise ValueError("empty log has no time span")
        return float(self.times[0]), float(self.times[-1])


class FrameView(Sequence):
    """Read-only sequence view over the rows of a log.

    ``len`` is O(1), an index builds one :class:`CanFrame`, a step-1 slice
    is another view, and a view equals a tuple of the same frames.
    """

    __slots__ = ("log",)

    def __init__(self, log: CanLog) -> None:
        self.log = log

    def __len__(self) -> int:
        return len(self.log)

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step != 1:
                return tuple(self[k] for k in range(lo, hi, step))
            return FrameView(self.log.rows(lo, max(lo, hi)))
        k = range(len(self))[key]
        log = self.log
        return CanFrame(float(log.times[k]), int(log.ids[k]),
                        log.payload[k, :log.dlc[k]].tobytes(), bool(log.extended[k]))

    def __eq__(self, other) -> bool:
        if isinstance(other, FrameView):
            return len(self) == len(other) and all(
                np.array_equal(getattr(self.log, name), getattr(other.log, name))
                for name in COLUMNS)
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<FrameView of {len(self)} frames>"


def _columns(rows: list[tuple[float, int, bool, bytes]]) -> tuple[np.ndarray, ...]:
    """Log columns, in file order, of (timestamp, id, extended, payload) rows."""
    n = len(rows)
    dlc = np.fromiter((len(row[3]) for row in rows), dtype=np.uint8, count=n)
    return (np.fromiter((row[0] for row in rows), dtype=np.float64, count=n),
            np.fromiter((row[1] for row in rows), dtype=np.int64, count=n),
            np.fromiter((row[2] for row in rows), dtype=np.bool_, count=n),
            dlc, _payload_matrix(dlc, b"".join(row[3] for row in rows)))


def _hex_payloads(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(dlc, payload rows) of even-length hex payload fields of at most 8 bytes."""
    dlc = (np.fromiter(map(len, texts), dtype=np.uint8, count=len(texts)) // 2)
    return dlc, _payload_matrix(dlc, bytes.fromhex("".join(texts)))


def _convert_distinct(texts: list[str], convert, dtype) -> np.ndarray:
    """``convert`` applied to every text, calling it once per distinct text."""
    index = {text: k for k, text in enumerate(dict.fromkeys(texts))}
    distinct = np.array([convert(text) for text in index], dtype=dtype)
    return distinct[np.fromiter(map(index.__getitem__, texts), dtype=np.intp,
                                count=len(texts))]


def _assemble(parts: list[tuple[np.ndarray, ...]]) -> CanLog:
    """One log from per-batch columns in file order (stable sort by timestamp)."""
    columns = [np.concatenate(column) for column in zip(*(parts or [_columns([])]))]
    times = columns[0]
    if (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        columns = [column[order] for column in columns]
    return CanLog(*columns)


def _batches(lines: Iterator[str]) -> Iterator[list[str]]:
    while batch := list(itertools.islice(lines, CHUNK_LINES)):
        yield batch


def _batch_text(batch: list[str]) -> str | None:
    """The batch joined, ending in a newline, when every element is exactly
    one line; else None."""
    text = "".join(batch)
    if not text.endswith("\n"):
        text += "\n"
    if (text.count("\n") != len(batch)
            or not all(map(str.endswith, batch[:-1], itertools.repeat("\n")))):
        return None
    return text


_CANDUMP_RE = re.compile(
    r"^\s*\((?P<ts>[^)]*)\)\s+(?P<chan>\S+)\s+(?P<id>[^#\s]*)#(?P<data>\S*)\s*$"
)
# A strict subset of the candump grammar, one whole line per match: single
# spaces, an ASCII interface name, a 1-8 digit hex id and whole payload bytes.
# A batch that these matches tile parses field by field with the same values
# that parse_candump_line gives; any other batch goes line by line.
_CANDUMP_STRICT_RE = re.compile(
    r"\([0-9]+\.[0-9]+\) [!-~]+ [0-9A-Fa-f]{1,8}#(?:[0-9A-Fa-f]{2}){0,8}\n")
# field grammars, ASCII only: float() and int() alone would also take "1_0"
# and non-ASCII digits
_TIMESTAMP_RE = re.compile(r"\s*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\s*",
                           re.ASCII)
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")
# CSV ids: 0x-prefixed hex, else decimal
_CSV_ID_RE = re.compile(r"\s*(?:0[xX](?P<hex>[0-9A-Fa-f]+)|(?P<dec>[0-9]+))\s*", re.ASCII)
_DLC_RE = re.compile(r"\s*[0-9]+\s*", re.ASCII)


def _candump_fields(line: str) -> tuple[float, int, bool, bytes]:
    m = _CANDUMP_RE.match(line)
    if m is None:
        raise LogParseError("line does not match candump format", line=line, offset=0)

    ts_text = m.group("ts")
    timestamp = float(ts_text) if _TIMESTAMP_RE.fullmatch(ts_text) else math.nan
    if not math.isfinite(timestamp) or timestamp < 0:
        raise LogParseError("malformed timestamp", line=line, offset=m.start("ts"))

    id_text = m.group("id")
    if not id_text or not _HEX_RE.fullmatch(id_text):
        raise LogParseError("invalid hex id", line=line, offset=m.start("id"))
    if len(id_text) > 8:
        raise LogParseError("id out of range", line=line, offset=m.start("id"))
    can_id = int(id_text, 16)
    extended = len(id_text) > 3
    if can_id > (CAN_EFF_MAX if extended else CAN_SFF_MAX):
        raise LogParseError("id out of range", line=line, offset=m.start("id"))

    payload = _parse_payload_hex(m.group("data"), line=line, offset=m.start("data"))
    return timestamp, can_id, extended, payload


def parse_candump_line(line: str) -> CanFrame:
    """Parse one candump log line, e.g. ``(1679000000.123456) can0 1F4#DEADBEEF``.

    The id is hexadecimal; 1-3 digits are taken as a standard (11-bit)
    frame, more as extended. Raises :class:`LogParseError` with the byte
    offset of the offending field on malformed input.
    """
    timestamp, can_id, extended, payload = _candump_fields(line)
    return CanFrame(timestamp, can_id, payload, extended)


def _parse_payload_hex(text: str, *, line: str | None = None,
                       offset: int | None = None, row: int | None = None) -> bytes:
    if not _HEX_RE.fullmatch(text):
        raise LogParseError("invalid payload hex", line=line, offset=offset, row=row)
    if len(text) % 2:
        raise LogParseError("odd payload hex length", line=line, offset=offset, row=row)
    if len(text) > 2 * MAX_PAYLOAD_BYTES:
        raise LogParseError("payload longer than 8 bytes", line=line, offset=offset, row=row)
    return bytes.fromhex(text)


def _candump_strict(text: str) -> tuple[np.ndarray, ...] | None:
    """Columns of a batch text whose lines all match ``_CANDUMP_STRICT_RE``
    and hold finite timestamps and in-range ids; else None."""
    rest, count = _CANDUMP_STRICT_RE.subn("", text)
    if rest:
        return None
    tokens = text.split()  # "(ts)", interface, "ID#DATA" per line
    stamps = "".join(tokens[0::3])[1:-1].split(")(")
    times = np.fromiter(map(float, stamps), dtype=np.float64, count=count)
    fields = "#".join(tokens[2::3]).split("#")
    id_texts = fields[0::2]
    ids = _convert_distinct(id_texts, functools.partial(int, base=16), np.int64)
    extended = np.fromiter(map(len, id_texts), dtype=np.uint8, count=count) > 3
    if (not np.isfinite(times).all()
            or (ids > np.where(extended, CAN_EFF_MAX, CAN_SFF_MAX)).any()):
        return None
    return (times, ids, extended, *_hex_payloads(fields[1::2]))


def _candump_lines(lines: list[str], first_row: int) -> tuple[np.ndarray, ...]:
    """Columns of candump lines parsed one by one; errors name the row."""
    rows = []
    for lineno, line in enumerate(lines, start=first_row):
        if not line.strip():
            continue
        try:
            rows.append(_candump_fields(line))
        except LogParseError as err:
            raise LogParseError(str(err), line=line, row=lineno) from err
    return _columns(rows)


def read_candump(stream: Iterable[str]) -> CanLog:
    """Parse a whole candump text stream of lines; blank lines are skipped.

    Lines are parsed in batches of ``CHUNK_LINES``: a batch of strict lines
    fills the columns at once, any other batch goes line by line, so errors
    carry the 1-based line number within the whole stream.
    """
    parts = []
    row = 1
    for batch in _batches(iter(stream)):
        text = _batch_text(batch)
        columns = None if text is None else _candump_strict(text)
        parts.append(_candump_lines(batch, row) if columns is None else columns)
        row += len(batch)
    return _assemble(parts)


def _csv_layout(header: list[str]) -> tuple[int, int, int, int | None, int]:
    """(timestamp, id, payload, dlc or None) column indices and the width."""
    header = [h.strip() for h in header]
    columns = {name: i for i, name in enumerate(header)}
    for name in ("timestamp", "id", "payload"):
        if name not in columns:
            raise LogParseError(f"missing column '{name}'")
    return (columns["timestamp"], columns["id"], columns["payload"],
            columns.get("dlc"), len(header))


def _csv_strict_re(layout: tuple[int, int, int, int | None, int]) -> re.Pattern:
    """One whole data line per match: unsigned decimal timestamps, 0x-hex or
    decimal ids of at most 8 or 10 digits, a one-digit dlc, whole payload
    bytes without a prefix, and other columns of at most 256 characters
    free of quotes, commas, NULs and line breaks."""
    ts_idx, id_idx, payload_idx, dlc_idx, width = layout
    fields = [r'[^,"\r\n\x00]{0,256}'] * width
    fields[ts_idx] = r"[0-9]+(?:\.[0-9]+)?"
    fields[id_idx] = r"(?:0[xX][0-9A-Fa-f]{1,8}|[0-9]{1,10})"
    if dlc_idx is not None:
        fields[dlc_idx] = "[0-8]"
    fields[payload_idx] = "(?:[0-9A-Fa-f]{2}){0,8}"
    return re.compile(",".join(fields) + "\n")


def _csv_id(text: str) -> int:
    return int(text[2:], 16) if text[:2] in ("0x", "0X") else int(text)


def _csv_strict(text: str, layout: tuple[int, int, int, int | None, int],
                strict: re.Pattern) -> tuple[np.ndarray, ...] | None:
    """Columns of a batch text whose lines all match ``strict`` and hold
    finite timestamps, in-range ids and a dlc equal to the payload length;
    else None."""
    rest, count = strict.subn("", text)
    if rest:
        return None
    ts_idx, id_idx, payload_idx, dlc_idx, width = layout
    fields = text.replace("\n", ",").split(",")[:-1]  # the text ends in a newline
    times = np.fromiter(map(float, fields[ts_idx::width]), dtype=np.float64, count=count)
    ids = _convert_distinct(fields[id_idx::width], _csv_id, np.int64)
    dlc, payload = _hex_payloads(fields[payload_idx::width])
    if not np.isfinite(times).all() or (ids > CAN_EFF_MAX).any():
        return None
    if dlc_idx is not None:
        stated = np.frombuffer("".join(fields[dlc_idx::width]).encode("ascii"),
                               dtype=np.uint8) - ord("0")
        if not np.array_equal(stated, dlc):
            return None
    return times, ids, ids > CAN_SFF_MAX, dlc, payload


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

    Data lines are parsed in batches of ``CHUNK_LINES``. Batches of strict
    lines fill the columns at once; from the first batch that is not, the
    rest of the stream goes through the CSV reader record by record, because
    a quoted field may span lines.
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
    strict = _csv_strict_re(layout)
    parts = []
    row = 1
    for batch in _batches(lines):
        text = _batch_text(batch)
        columns = None if text is None else _csv_strict(text, layout, strict)
        if columns is None:
            parts.append(_csv_rows(itertools.chain(batch, lines), layout, row))
            break
        parts.append(columns)
        row += len(batch)
    return _assemble(parts)


def write_csv_log(log: CanLog, sink: IO[str]) -> None:
    """Serialize a log to CSV: 6-decimal timestamps, 0x-hex ids, hex payload."""
    sink.write(",".join(CSV_HEADER) + "\n")
    id_texts = {can_id: f"0x{can_id:X}" for can_id in np.unique(log.ids).tolist()}
    width = 2 * MAX_PAYLOAD_BYTES
    for lo in range(0, len(log), CHUNK_LINES):
        rows = log.rows(lo, lo + CHUNK_LINES)
        hexes = rows.payload.tobytes().hex().upper()
        sink.write("".join(
            f"{t:.{TIMESTAMP_DECIMALS}f},{id_texts[can_id]},{dlc},"
            f"{hexes[k * width:k * width + 2 * dlc]}\n"
            for k, (t, can_id, dlc) in enumerate(zip(rows.times.tolist(), rows.ids.tolist(),
                                                     rows.dlc.tolist()))))


def load_log(path: str) -> CanLog:
    """Read a traffic log file, sniffing candump vs CSV from the first line."""
    with open(path, "r", encoding="utf-8") as f:
        head = ""
        for line in f:
            if line.strip():
                head = line.lstrip()
                break
    with open(path, "r", encoding="utf-8") as f:
        if head.startswith("("):
            return read_candump(f)
        return parse_csv_log(f)


def save_log(log: CanLog, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_csv_log(log, f)
