import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canoc import (AttackScenario, CanFrame, CanLog, LogParseError, apply_scaler,
                   build_vocabulary, extract_matrix, fit_model, fit_scaler, inject,
                   label_windows, parse_candump_line, parse_csv_log, score_samples,
                   segment_windows, write_csv_log)
from canoc import canlog
from canoc.canlog import COLUMNS, CSV_HEADER, load_log, read_candump, save_log
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
        CanLog(np.array([1.0, 0.5]), np.array([1, 1]), np.zeros(2, dtype=bool),
               np.zeros(2, dtype=np.uint8), np.zeros((2, 8), dtype=np.uint8))


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
    write_csv_log(CanLog.from_frames(()), sink)
    assert sink.getvalue() == "timestamp,id,dlc,payload\n"


def _roundtrip(log):
    sink = io.StringIO()
    write_csv_log(log, sink)
    return parse_csv_log(io.StringIO(sink.getvalue()))


def test_roundtrip_single_frame():
    log = CanLog.from_frames((CanFrame(1.25, 0x1F4, b"\xde\xad"),))
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


# --- the frames view ----------------------------------------------------------

def test_frames_view_indexes_slices_and_compares():
    a, b, c = CanFrame(0.5, 0x10, b"\x01"), CanFrame(1.0, 0x1FFFF, b"", True), CanFrame(2.0, 0x7FF)
    log = CanLog.from_frames([c, a, b])
    frames = log.frames
    assert len(frames) == 3
    assert frames[0] == a and frames[-1] == c
    with pytest.raises(IndexError):
        frames[3]
    middle = frames[1:]
    assert isinstance(middle, CanLog) and middle == (b, c)
    assert middle.times.base is not None  # a view, not a copy
    assert frames[::2] == (a, c)
    assert frames == (a, b, c) and frames != (a, b)
    assert frames == CanLog.from_frames([a, b, c]).frames
    assert frames[:0] == () and list(frames) == [a, b, c]


def test_log_compares_by_value_and_is_unhashable():
    frames = [CanFrame(0.5, 0x10, b"\x01"), CanFrame(1.0, 0x1FFFF, b"", True)]
    log = CanLog.from_frames(frames)
    assert log == CanLog.from_frames(frames) and log != CanLog.from_frames(frames[:1])
    assert log[0:1] == CanLog.from_frames(frames[:1]) and log != frames
    with pytest.raises(TypeError):
        hash(log)


def test_log_columns_are_read_only():
    log = CanLog.from_frames([CanFrame(0.5, 0x10, b"\x01")])
    for name in COLUMNS:
        with pytest.raises(ValueError):
            getattr(log, name)[0] = 0


def test_log_rejects_bytes_past_dlc():
    with pytest.raises(ValueError, match="past dlc"):
        CanLog(np.array([0.0]), np.array([1]), np.zeros(1, dtype=bool),
               np.zeros(1, dtype=np.uint8), np.ones((1, 8), dtype=np.uint8))


def test_hot_paths_build_no_frames(tmp_path, monkeypatch):
    built = []
    check = CanFrame.__post_init__

    def counting(frame):
        built.append(frame)
        check(frame)

    monkeypatch.setattr(CanFrame, "__post_init__", counting)
    normal = generate_normal(default_bus(6.0, seed=1))
    labeled = inject(normal, AttackScenario(kind="random_id", rate=200.0,
                                            window=(1.0, 2.0), seed=2))
    labeled = inject(labeled, AttackScenario(kind="replay", window=(3.0, 4.0),
                                             replay_segment=(0.5, 1.0), repeat=2))
    vocab = build_vocabulary(normal)
    windows = segment_windows(labeled.log, 1.0)
    X, _ = extract_matrix(windows, vocab, labels=label_windows(labeled, windows))
    scaler = fit_scaler(X)
    model = fit_model("svdd", apply_scaler(scaler, X), C=1.0, scaler=scaler)
    csv_path, candump_path = tmp_path / "log.csv", tmp_path / "log.candump"
    save_log(labeled.log, str(csv_path))
    candump_path.write_text("".join(f"({t:.6f}) can0 {i:03X}#00\n" for t, i in
                                    zip(normal.times.tolist(), normal.ids.tolist())))
    for path in (csv_path, candump_path):
        loaded = load_log(str(path))
        X2, _ = extract_matrix(segment_windows(loaded, 1.0), vocab)
        assert np.isfinite(score_samples(model, X2)).all()
        assert len(loaded.frames) == len(loaded)
    assert built == []
    assert normal.frames[3] == built[0]  # indexing does build one


# --- chunked readers against the line-by-line readers ----------------------

def read_outcome(reader, text, line_by_line):
    """A reader's result on ``text``: the log's columns, or the error raised.
    ``line_by_line`` turns the strict batch path off."""
    strict = "_candump_strict" if reader is read_candump else "_csv_strict"
    batch_path = (lambda *args: None) if line_by_line else getattr(canlog, strict)
    with mock.patch.object(canlog, "CHUNK_LINES", 3), \
            mock.patch.object(canlog, strict, batch_path):
        try:
            log = reader(io.StringIO(text))
        except LogParseError as err:
            return "LogParseError", str(err), err.row
        except csv.Error as err:
            return "csv.Error", str(err), None
    return [getattr(log, name).tolist() for name in COLUMNS]


def assert_readers_agree(reader, text):
    assert read_outcome(reader, text, False) == read_outcome(reader, text, True)


FRAME_FIELDS = st.tuples(st.integers(0, 10 ** 12), st.integers(0, 0x7FF),
                         st.binary(max_size=8))

CANDUMP_MUTANTS = (
    "\n", "   \n", "\t\n",                                     # blank lines
    "(1.000000) can0 100#00\r\n", "(1.0) can0\r100#00\n",
    "(1.000000)\u00a0can0 100#00\n", "\u2003(1.0) can0 100#00\n",
    "(1.0) can0 100#00\u3000\n", "(1.0) can0 100#\u200000\n",
    "(+1.5) can0 100#00\n", "(-1.5) can0 100#00\n", "(1e3) can0 100#00\n",
    "(1.5E-2) can0 100#00\n", "(" + "9" * 400 + ".0) can0 100#00\n",
    "(1.0) can0 0100#00\n", "(1.0) can0 00001FFF#00\n", "(1.0) can0 1FFFFFFF#00\n",
    "(1.0) can0 800#00\n", "(1.0) can0 20000000#00\n", "(1.0) can0 123456789#00\n",
    "(1.0) can0 100#ABC\n", "(1.0) can0 100#" + "00" * 9 + "\n",
    "(1.0)  can0 100#00\n", "(1.0) can0 100#00 extra\n",
)


@given(st.lists(FRAME_FIELDS, max_size=16),
       st.lists(st.tuples(st.integers(0, 16), st.sampled_from(CANDUMP_MUTANTS)), max_size=4),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_chunked_candump_reader_matches_line_reader(frames, mutants, last_newline):
    lines = [f"({t // 10 ** 6}.{t % 10 ** 6:06d}) can0 {i:03X}#{p.hex().upper()}\n"
             for t, i, p in frames]
    for pos, mutant in mutants:
        lines.insert(min(pos, len(lines)), mutant)
    text = "".join(lines)
    if not last_newline:
        text = text[:-1]
    assert_readers_agree(read_candump, text)


CSV_MUTANTS = (
    ("timestamp", "+1.5"), ("timestamp", "-1.5"), ("timestamp", "1e3"),
    ("timestamp", "1.5E-2"), ("timestamp", "9" * 400 + ".0"), ("timestamp", "1.5\r"),
    ("timestamp", "\u00a01.5"), ("timestamp", " 1.5"), ("timestamp", "7"),
    ("id", "0x0100"), ("id", "0x1FFFFFFF"), ("id", "12345678"), ("id", "0x20000000"),
    ("id", "536870912"), ("id", "0x123456789"), ("id", "0X7ff"),
    ("payload", "ABC"), ("payload", "00" * 9), ("payload", "0xAABB"), ("payload", "0x"),
    ("dlc", "3"), ("dlc", "9"), ("dlc", "12"), ("dlc", " 2"), ("note", '"quoted, text"'),
    ("note", "\u2003"), (None, "\n"), (None, "\r\n"),
)


@given(st.permutations(("timestamp", "id", "dlc", "payload", "note")),
       st.sets(st.sampled_from(("dlc", "note"))),
       st.booleans(),
       st.lists(FRAME_FIELDS, max_size=16),
       st.lists(st.tuples(st.integers(0, 16), st.sampled_from(CSV_MUTANTS)), max_size=4))
@settings(max_examples=300, deadline=None)
def test_chunked_csv_reader_matches_line_reader(order, dropped, written, frames, mutants):
    # half the examples take the written header, the only one with a batch path
    header = list(CSV_HEADER) if written else [name for name in order if name not in dropped]
    rows = [{"timestamp": f"{t // 10 ** 6}.{t % 10 ** 6:06d}", "id": f"0x{i:X}",
             "dlc": str(len(p)), "payload": p.hex().upper(), "note": "n"}
            for t, i, p in frames]
    lines = [",".join(row[name] for name in header) + "\n" for row in rows]
    for pos, (name, value) in mutants:
        if name is None:  # a whole line: blank, or a bare CRLF
            lines.insert(min(pos, len(lines)), value)
        elif pos < len(rows) and name in header:
            rows[pos][name] = value
            lines[pos] = ",".join(rows[pos][n] for n in header) + "\n"
    assert_readers_agree(parse_csv_log, ",".join(header) + "\n" + "".join(lines))


def test_csv_batch_path_runs_only_under_the_written_header():
    expected = CanLog.from_frames([CanFrame(1.0, 0x100, b"\xab")])
    for text, calls in (("timestamp,id,dlc,payload\n1.0,0x100,1,AB\n", 1),
                        ("id,timestamp,dlc,payload\n0x100,1.0,1,AB\n", 0),
                        ("timestamp,id,dlc,payload,note\n1.0,0x100,1,AB,n\n", 0),
                        ("timestamp,id,payload\n1.0,0x100,AB\n", 0)):
        with mock.patch.object(canlog, "_csv_strict", wraps=canlog._csv_strict) as strict:
            assert parse_csv_log(io.StringIO(text)) == expected
        assert strict.call_count == calls, text


def test_readers_take_each_stream_element_as_one_line():
    # joined, these elements would be two valid lines
    with pytest.raises(LogParseError, match="does not match candump") as err:
        read_candump(["(1.0) can0 100#\n(2.0) can0 1", "00#\n"])
    assert err.value.row == 1


@pytest.mark.parametrize("reader, good, bad, header", [
    (read_candump, "(1.000000) can0 100#00\n", "(1.000000) can0 100#0\n", ""),
    (parse_csv_log, "1.000000,0x100,1,00\n", "1.000000,0x100,1,0\n", "timestamp,id,dlc,payload\n"),
])
def test_bad_line_deep_in_the_stream_reports_its_row(reader, good, bad, header):
    row = 2 * canlog.CHUNK_LINES + 7
    text = header + good * (row - 1) + bad + good * 5
    with pytest.raises(LogParseError, match="odd payload hex length") as err:
        reader(io.StringIO(text))
    assert err.value.row == row
