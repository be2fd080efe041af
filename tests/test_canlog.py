import io

import pytest
from hypothesis import given, settings, strategies as st

from canoc import (CanFrame, CanLog, LogParseError,
                   parse_candump_line, parse_csv_log, write_csv_log)
from canoc.canlog import read_candump
from canoc.simulate import default_bus, generate_normal


# --- frame/log invariants -------------------------------------------------

def test_frame_rejects_long_payload():
    with pytest.raises(ValueError, match="payload"):
        CanFrame(0.0, 0x100, bytes(9))


def test_frame_rejects_id_out_of_standard_range():
    with pytest.raises(ValueError, match="out of range"):
        CanFrame(0.0, 0x800, b"")
    CanFrame(0.0, 0x800, b"", extended=True)  # fine when extended


def test_frame_rejects_bad_timestamp():
    with pytest.raises(ValueError, match="timestamp"):
        CanFrame(-1.0, 0x100, b"")
    with pytest.raises(ValueError, match="timestamp"):
        CanFrame(float("nan"), 0x100, b"")


def test_log_requires_sorted_frames():
    with pytest.raises(ValueError, match="sorted"):
        CanLog((CanFrame(1.0, 1), CanFrame(0.5, 1)))


def test_log_ties_keep_input_order():
    a, b = CanFrame(1.0, 0x10), CanFrame(1.0, 0x20)
    log = CanLog.from_frames([a, b])
    assert log.frames == (a, b)


# --- candump parsing ------------------------------------------------------

def test_parse_candump_basic():
    frame = parse_candump_line("(1679000000.123456) can0 1F4#DEADBEEF")
    assert frame.timestamp == 1679000000.123456
    assert frame.can_id == 0x1F4
    assert frame.payload == bytes([0xDE, 0xAD, 0xBE, 0xEF])
    assert frame.channel == "can0"
    assert not frame.extended


def test_parse_candump_empty_payload():
    frame = parse_candump_line("(0.000000) can0 000#")
    assert frame.timestamp == 0.0
    assert frame.can_id == 0
    assert frame.payload == b""


def test_parse_candump_invalid_hex_id():
    with pytest.raises(LogParseError, match="invalid hex id"):
        parse_candump_line("(1.0) can0 GG#00")


def test_parse_candump_extended_id():
    frame = parse_candump_line("(1.0) can0 1FFFFFFF#00")
    assert frame.extended and frame.can_id == 0x1FFFFFFF


def test_parse_candump_errors():
    with pytest.raises(LogParseError, match="malformed timestamp"):
        parse_candump_line("(abc) can0 100#00")
    with pytest.raises(LogParseError, match="odd payload hex length"):
        parse_candump_line("(1.0) can0 100#012")
    with pytest.raises(LogParseError, match="id out of range"):
        parse_candump_line("(1.0) can0 FFF#00")  # 3 digits parse as standard
    with pytest.raises(LogParseError, match="does not match"):
        parse_candump_line("not a candump line")
    for line, message in (("(1_0.5) can0 100#00", "malformed timestamp"),
                          ("(\u0661.5) can0 100#00", "malformed timestamp"),
                          ("(1.0) can0 1_0#00", "invalid hex id"),
                          ("(1.0) can0 \u0663#00", "invalid hex id"),
                          ("(1.0) can0 100#0xAB", "invalid payload hex")):
        with pytest.raises(LogParseError, match=message):
            parse_candump_line(line)
        with pytest.raises(LogParseError, match=message) as err:
            read_candump(["(0.5) can0 100#00\n", line + "\n"])
        assert err.value.row == 2


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_parse_candump_never_panics(line):
    try:
        frame = parse_candump_line(line)
    except LogParseError:
        return
    assert isinstance(frame, CanFrame)


# --- CSV parsing and round trips ------------------------------------------

def _csv(text):
    return io.StringIO(text)


def test_parse_csv_basic():
    log = parse_csv_log(_csv("timestamp,id,dlc,payload\n"
                             "0.0,0x100,2,0102\n"
                             "0.01,0x200,0,\n"))
    assert [f.can_id for f in log.frames] == [0x100, 0x200]
    assert log.frames[0].payload == bytes([1, 2])
    assert log.frames[1].payload == b""
    # columns by name in any order, extra columns ignored, dlc optional
    log = parse_csv_log(_csv("payload,note,id,timestamp\n0xAABB,x,0x1F4,2.5\n"))
    assert (log.frames[0].timestamp, log.frames[0].can_id,
            log.frames[0].payload) == (2.5, 0x1F4, b"\xaa\xbb")


def test_parse_csv_resorts_rows():
    log = parse_csv_log(_csv("timestamp,id,dlc,payload\n"
                             "0.5,0x1,0,\n0.1,0x2,0,\n"))
    assert [f.timestamp for f in log.frames] == [0.1, 0.5]


def test_parse_csv_accepts_decimal_ids():
    log = parse_csv_log(_csv("timestamp,id,dlc,payload\n1.0,256,0,\n"))
    assert log.frames[0].can_id == 0x100


def test_parse_csv_odd_payload_error_carries_row():
    with pytest.raises(LogParseError, match="odd payload hex length") as err:
        parse_csv_log(_csv("timestamp,id,dlc,payload\n0.0,0x1,2,010\n"))
    assert err.value.row == 1


def test_parse_csv_structural_errors():
    with pytest.raises(LogParseError, match="missing column 'payload'"):
        parse_csv_log(_csv("timestamp,id,dlc\n"))
    with pytest.raises(LogParseError, match="unsortable timestamp"):
        parse_csv_log(_csv("timestamp,id,dlc,payload\nxx,0x1,0,\n"))
    with pytest.raises(LogParseError, match="row arity mismatch"):
        parse_csv_log(_csv("timestamp,id,dlc,payload\n0.0,0x1,0\n"))
    with pytest.raises(LogParseError, match="dlc 3 does not match"):
        parse_csv_log(_csv("timestamp,id,dlc,payload\n0.0,0x1,3,0102\n"))
    # ids and timestamps are ASCII digits (ids also 0x-hex), without "_"
    for ts, cid, message in (("0.0", "1_0", "invalid id"),
                             ("0.0", "0x1_00", "invalid id"),
                             ("0.0", "\u0663", "invalid id"),
                             ("0.0", "0x", "invalid id"),
                             ("1_0.5", "0x1", "unsortable timestamp"),
                             ("\u0661.5", "0x1", "unsortable timestamp")):
        with pytest.raises(LogParseError, match=message) as err:
            parse_csv_log(_csv(f"timestamp,id,dlc,payload\n0.0,0x1,0,\n{ts},{cid},0,\n"))
        assert err.value.row == 2
    # so is the dlc: decimal ASCII digits, without "_"
    for dlc in ("\u0663", "1_0", "0_3"):
        with pytest.raises(LogParseError, match="invalid dlc") as err:
            parse_csv_log(_csv(f"timestamp,id,dlc,payload\n0.0,0x1,0,\n0.0,0x100,{dlc},AABBCC\n"))
        assert err.value.row == 2


def test_write_empty_log_header_only():
    sink = io.StringIO()
    write_csv_log(CanLog(()), sink)
    assert sink.getvalue() == "timestamp,id,dlc,payload\n"


def _roundtrip(log):
    sink = io.StringIO()
    write_csv_log(log, sink)
    return parse_csv_log(io.StringIO(sink.getvalue()))


def test_roundtrip_single_frame():
    log = CanLog((CanFrame(1.25, 0x1F4, b"\xde\xad"),))
    back = _roundtrip(log)
    assert len(back.frames) == 1
    f = back.frames[0]
    assert (f.timestamp, f.can_id, f.payload) == (1.25, 0x1F4, b"\xde\xad")


frames_strategy = st.lists(
    st.tuples(st.floats(min_value=0, max_value=1e9, allow_nan=False),
              st.integers(min_value=0, max_value=0x1FFFFFFF),
              st.binary(max_size=8)),
    max_size=30)


@given(frames_strategy)
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(entries):
    frames = [CanFrame(t, cid, payload, extended=cid > 0x7FF)
              for t, cid, payload in entries]
    log = CanLog.from_frames(frames)
    back = _roundtrip(log)
    assert len(back.frames) == len(log.frames)
    for a, b in zip(log.frames, back.frames):
        assert b.timestamp == round(a.timestamp, 6)
        assert b.can_id == a.can_id
        assert b.payload == a.payload


def test_roundtrip_large_synthetic_log_is_stable():
    # ~10k frames from the traffic generator: serialize, parse, re-serialize
    log = generate_normal(default_bus(25.0, seed=42))
    assert len(log.frames) > 10_000
    first = io.StringIO()
    write_csv_log(log, first)
    back = parse_csv_log(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_csv_log(back, second)
    assert first.getvalue() == second.getvalue()
    for a, b in zip(log.frames, back.frames):
        assert (round(a.timestamp, 6), a.can_id, a.payload) == \
               (b.timestamp, b.can_id, b.payload)
