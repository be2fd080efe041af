import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from canoc import CanFrame, CanLog
from canoc.canlog import COLUMNS, LogParseError, join_logs


def make_log(entries):
    """Build a CanLog from (timestamp, can_id) or (timestamp, can_id, payload)
    tuples, sorting stably by timestamp."""
    frames = []
    for entry in entries:
        t, cid = entry[0], entry[1]
        payload = entry[2] if len(entry) > 2 else b""
        frames.append(CanFrame(t, cid, payload, extended=cid > 0x7FF))
    return CanLog.from_frames(frames)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# --- the log grammar read line by line: the reference for canlog's readers --

TIMESTAMP = rb"(?P<ts>[0-9]*\.?[0-9]*)"
PAYLOAD = rb"(?P<data>(?:[0-9A-Fa-f]{2}){0,8})"
CANDUMP_LINE = re.compile(rb"\(" + TIMESTAMP + rb"\) [!-~]+ (?P<id>[0-9A-Fa-f]{1,8})#" + PAYLOAD)
CSV_LINE = re.compile(TIMESTAMP + rb",0[xX](?P<id>[0-9A-Fa-f]{1,8}),(?P<dlc>[0-9]),"
                      + PAYLOAD)


def reference_read(data, fmt):
    """What the strict grammar makes of ``data``, one line at a time: the
    frames as (time, id, extended, payload) sorted stably by time, or
    ("error", row) for the first line outside it, row None for a CSV header."""
    if fmt == "csv":
        header, _, data = data.partition(b"\n")
        if header != b"timestamp,id,dlc,payload":
            return "error", None
    lines = data.split(b"\n")
    if data.endswith(b"\n") or not data:
        lines.pop()
    frames = []
    for row, line in enumerate(lines, start=1):
        m = (CANDUMP_LINE if fmt == "candump" else CSV_LINE).fullmatch(line)
        if m is None or m["ts"] in (b"", b"."):
            return "error", row
        t, can_id = float(m["ts"]), int(m["id"], 16)
        extended = len(m["id"]) > 3 if fmt == "candump" else can_id > 0x7FF
        if (not math.isfinite(t) or can_id > (0x1FFFFFFF if extended else 0x7FF)
                or fmt == "csv" and int(m["dlc"]) != len(m["data"]) // 2):
            return "error", row
        frames.append((t, can_id, extended, bytes.fromhex(m["data"].decode())))
    return sorted(frames, key=lambda frame: frame[0])


def read_frames(read, data):
    """``read(data)`` in the form of ``reference_read``: the log's frames,
    or ("error", row) for a LogParseError. The readers build their logs
    without ``CanLog``'s checks, so the log must also pass them."""
    try:
        log = read(data)
    except LogParseError as err:
        return "error", err.row
    assert CanLog(*(getattr(log, name) for name in COLUMNS)) == log
    return [(t, can_id, extended, bytes(payload[:dlc])) for t, can_id, extended, dlc, payload
            in zip(log.times.tolist(), log.ids.tolist(), log.extended.tolist(),
                   log.dlc.tolist(), log.payload.tolist())]


# --- labels as a tuple of strings: the reference for the label column -------------

def tuple_join_labeled(parts):
    """The (log, labels) of ``parts``, (log, tuple of labels) pairs in order,
    stably sorted by timestamp, each label with its frame: the tuple join that
    the label column replaced."""
    times = np.concatenate([log.times for log, _ in parts])
    labels = tuple(itertools.chain.from_iterable(labels for _, labels in parts))
    order = np.argsort(times, kind="stable").tolist()
    return join_logs([log for log, _ in parts]), tuple(labels[k] for k in order)


def tuple_label_windows(log, labels, windows):
    """Each window's label from the tuple ``labels`` of ``log``'s frames, by
    its position in ``log``: the label_windows that the code reduction replaced."""
    starts = np.searchsorted(log.times, [w.start for w in windows], side="left")
    out = []
    for w, lo in zip(windows, starts.tolist()):
        hi = lo + len(w.frames)
        assert log[lo:hi] == w.frames
        kinds = [label for label in labels[lo:hi] if label != "normal"]
        # max keeps the first of the tied kinds, in frame order
        out.append(max(kinds, key=Counter(kinds).__getitem__) if kinds else "normal")
    return out
