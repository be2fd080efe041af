"""CAN frame and log records plus the two on-disk traffic formats.

Two formats are supported: the candump text format
``(<sec.usec>) <iface> <ID>#<DATA>`` and a CSV format with header
``timestamp,id,dlc,payload`` (payload as contiguous hex, dlc = payload byte
count). Parsing is pure and never raises anything but :class:`LogParseError`
on bad input; logs are immutable value objects safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import IO, Iterable

CAN_SFF_MAX = 0x7FF  # 11-bit standard id
CAN_EFF_MAX = 0x1FFFFFFF  # 29-bit extended id
MAX_PAYLOAD_BYTES = 8

# candump convention: microsecond precision; bounds round-trip loss
TIMESTAMP_DECIMALS = 6

CSV_HEADER = ("timestamp", "id", "dlc", "payload")


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


@dataclass(frozen=True)
class CanFrame:
    """One timestamped CAN message.

    ``can_id`` must fit the addressing mode: 11 bits unless ``extended``.
    """

    timestamp: float
    can_id: int
    payload: bytes = b""
    channel: str | None = None
    extended: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValueError(f"timestamp must be finite and >= 0, got {self.timestamp}")
        limit = CAN_EFF_MAX if self.extended else CAN_SFF_MAX
        if not 0 <= self.can_id <= limit:
            raise ValueError(f"id 0x{self.can_id:X} out of range for "
                             f"{'extended' if self.extended else 'standard'} addressing")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise ValueError(f"payload length {len(self.payload)} exceeds {MAX_PAYLOAD_BYTES}")


@dataclass(frozen=True)
class CanLog:
    """A timestamp-sorted sequence of frames. Ties keep insertion order."""

    frames: tuple[CanFrame, ...]

    def __post_init__(self) -> None:
        frames = tuple(self.frames)
        object.__setattr__(self, "frames", frames)
        for a, b in zip(frames, frames[1:]):
            if b.timestamp < a.timestamp:
                raise ValueError("frames not sorted by timestamp")

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    @classmethod
    def from_frames(cls, frames: Iterable[CanFrame]) -> "CanLog":
        """Build a log from frames in any order (stable sort by timestamp)."""
        return cls(tuple(sorted(frames, key=lambda f: f.timestamp)))

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) timestamp; raises on an empty log."""
        if not self.frames:
            raise ValueError("empty log has no time span")
        return self.frames[0].timestamp, self.frames[-1].timestamp


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


def parse_candump_line(line: str) -> CanFrame:
    """Parse one candump log line, e.g. ``(1679000000.123456) can0 1F4#DEADBEEF``.

    The id is hexadecimal; 1-3 digits are taken as a standard (11-bit)
    frame, more as extended. Raises :class:`LogParseError` with the byte
    offset of the offending field on malformed input.
    """
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
    return CanFrame(timestamp, can_id, payload, channel=m.group("chan"), extended=extended)


def _parse_payload_hex(text: str, *, line: str | None = None,
                       offset: int | None = None, row: int | None = None) -> bytes:
    if not _HEX_RE.fullmatch(text):
        raise LogParseError("invalid payload hex", line=line, offset=offset, row=row)
    if len(text) % 2:
        raise LogParseError("odd payload hex length", line=line, offset=offset, row=row)
    if len(text) > 2 * MAX_PAYLOAD_BYTES:
        raise LogParseError("payload longer than 8 bytes", line=line, offset=offset, row=row)
    return bytes.fromhex(text)


def read_candump(stream: Iterable[str]) -> CanLog:
    """Parse a whole candump text stream; blank lines are skipped."""
    frames = []
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            frames.append(parse_candump_line(line))
        except LogParseError as err:
            raise LogParseError(str(err), line=line, row=lineno) from err
        except ValueError as err:  # frame invariant violations
            raise LogParseError(str(err), line=line, row=lineno) from err
    return CanLog.from_frames(frames)


def parse_csv_log(stream: Iterable[str]) -> CanLog:
    """Parse a CSV traffic log; output is sorted by timestamp, ties stable.

    Columns are found by header name in any order and extra columns are
    ignored; ``dlc`` is optional and, when present, must match the payload
    length. The payload may carry a ``0x`` prefix. Errors carry the 1-based
    data row number.
    """
    import csv as _csv

    reader = _csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise LogParseError("missing header row") from None
    header = [h.strip() for h in header]
    columns = {name: i for i, name in enumerate(header)}
    for name in ("timestamp", "id", "payload"):
        if name not in columns:
            raise LogParseError(f"missing column '{name}'")
    ts_idx, id_idx, payload_idx = columns["timestamp"], columns["id"], columns["payload"]
    dlc_idx = columns.get("dlc")

    frames = []
    for rownum, fields in enumerate(reader, start=1):
        if not fields:
            continue
        if len(fields) != len(header):
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
        try:
            frames.append(CanFrame(timestamp, can_id, payload,
                                   extended=can_id > CAN_SFF_MAX))
        except ValueError as err:
            raise LogParseError(str(err), row=rownum) from err
    return CanLog.from_frames(frames)


def write_csv_log(log: CanLog, sink: IO[str]) -> None:
    """Serialize a log to CSV: 6-decimal timestamps, 0x-hex ids, hex payload."""
    sink.write(",".join(CSV_HEADER) + "\n")
    for frame in log.frames:
        sink.write(f"{frame.timestamp:.{TIMESTAMP_DECIMALS}f},"
                   f"0x{frame.can_id:X},{len(frame.payload)},"
                   f"{frame.payload.hex().upper()}\n")


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
