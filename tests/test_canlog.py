import io
from unittest import mock

import numpy as np
import pytest
from conftest import read_frames, reference_read
from hypothesis import given, settings, strategies as st

from canoc import (AttackScenario, CanFrame, CanLog, LogParseError, apply_scaler,
                   build_vocabulary, extract_matrix, fit_model, fit_scaler, inject,
                   label_windows, parse_csv_log, read_candump, score_samples,
                   segment_windows, write_csv_log)
from canoc import canlog
from canoc.canlog import COLUMNS, CSV_HEADER, load_log, save_log
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

def one_frame(line):
    """The frame of one candump line."""
    log = read_candump(line.encode() + b"\n")
    assert len(log) == 1
    return log[0]


def test_parse_candump_basic():
    frame = one_frame("(1679000000.123456) can0 1F4#DEADBEEF")
    assert frame.timestamp == 1679000000.123456
    assert frame.can_id == 0x1F4
    assert frame.payload == bytes([0xDE, 0xAD, 0xBE, 0xEF])
    assert not frame.extended


def test_parse_candump_empty_payload():
    frame = one_frame("(0.000000) can0 000#")
    assert frame.timestamp == 0.0
    assert frame.can_id == 0
    assert frame.payload == b""


def test_parse_candump_invalid_hex_id():
    with pytest.raises(LogParseError, match="invalid hex id"):
        one_frame("(1.0) can0 GG#00")


def test_parse_candump_extended_id():
    frame = one_frame("(1.0) can0 1FFFFFFF#00")
    assert frame.extended and frame.can_id == 0x1FFFFFFF


@pytest.mark.parametrize("line, message", [
    ("(abc) can0 100#00", "malformed timestamp"),
    ("(1.0) can0 100#012", "odd payload hex length"),
    ("(1.0) can0 FFF#00", "id out of range"),  # 3 digits parse as standard
    ("(1.0) can0 123456789#00", "id out of range"),
    ("(1.0) can0 100#" + "00" * 9, "payload longer than 8 bytes"),
    ("not a candump line", "line does not match candump format"),
    ("(1.0) can0 100", "line does not match candump format"),
    ("(1.0) can0 #00", "invalid hex id"),
    ("(1_0.5) can0 100#00", "malformed timestamp"),
    ("(\u0661.5) can0 100#00", "byte outside printable ASCII"),
    ("(1.0) can0 1_0#00", "invalid hex id"),
    ("(1.0) can0 \u0663#00", "byte outside printable ASCII"),
    ("(1.0) can0 100#0xAB", "invalid payload hex")])
def test_parse_candump_errors(line, message):
    with pytest.raises(LogParseError) as err:
        read_candump(f"(0.5) can0 100#00\n{line}\n".encode())
    assert str(err.value) == f"{message} (row 2)" and err.value.row == 2


# --- CSV parsing and round trips ------------------------------------------

def _csv(text):
    return text.encode()


def test_parse_csv_basic():
    log = parse_csv_log(_csv("timestamp,id,dlc,payload\n"
                             "0.0,0x100,2,0102\n"
                             "0.01,0X200,0,\n"))
    assert [f.can_id for f in log.frames] == [0x100, 0x200]
    assert log.frames[0].payload == bytes([1, 2])
    assert log.frames[1].payload == b""


def test_parse_csv_resorts_rows():
    log = parse_csv_log(_csv("timestamp,id,dlc,payload\n"
                             "0.5,0x1,0,\n0.1,0x2,0,\n"))
    assert [f.timestamp for f in log.frames] == [0.1, 0.5]


def test_parse_csv_rejects_decimal_ids():
    with pytest.raises(LogParseError) as err:
        parse_csv_log(_csv("timestamp,id,dlc,payload\n1.0,256,0,\n"))
    assert str(err.value) == "invalid id (row 1)"


def test_parse_csv_odd_payload_error_carries_row():
    with pytest.raises(LogParseError, match="odd payload hex length") as err:
        parse_csv_log(_csv("timestamp,id,dlc,payload\n0.0,0x1,2,010\n"))
    assert err.value.row == 1


@pytest.mark.parametrize("row, message", [
    ("xx,0x1,0,", "malformed timestamp"),
    ("0.0,0x1,0", "row arity mismatch"),
    ("0.0,0x1,0,,", "row arity mismatch"),
    ("0.0,0x1,3,0102", "dlc 3 does not match payload length"),
    ("0.0,0x1,0,0x", "invalid payload hex"),
    # ids are 0x-hex and timestamps decimal, ASCII digits without "_"
    ("0.0,1_0,0,", "invalid id"), ("0.0,0x1_00,0,", "invalid id"),
    ("0.0,\u0663,0,", "byte outside printable ASCII"), ("0.0,0x,0,", "invalid id"),
    ("1_0.5,0x1,0,", "malformed timestamp"), ("\u0661.5,0x1,0,", "byte outside printable ASCII"),
    ("+1.5,0x1,0,", "malformed timestamp"), ("1e3,0x1,0,", "malformed timestamp"),
    ("1.5.0,0x1,0,", "malformed timestamp"), (".,0x1,0,", "malformed timestamp"),
    # so is the dlc: one decimal ASCII digit
    ("0.0,0x100,\u0663,AABBCC", "byte outside printable ASCII"),
    ("0.0,0x100,1_0,AABBCC", "invalid dlc"), ("0.0,0x100,0_3,AABBCC", "invalid dlc"),
    ("0.0,0x100,x,AABBCC", "invalid dlc"), ("0.0,0x100,,", "invalid dlc")])
def test_parse_csv_structural_errors(row, message):
    with pytest.raises(LogParseError) as err:
        parse_csv_log(_csv(f"timestamp,id,dlc,payload\n0.0,0x1,0,\n{row}\n"))
    assert str(err.value) == f"{message} (row 2)" and err.value.row == 2


@pytest.mark.parametrize("dlc, message", [("9", "dlc 9 does not match payload length"),
                                          ("12", "invalid dlc"), ("9" * 4000, "invalid dlc")],
                         ids=["9", "12", "4000-digit"])
def test_parse_csv_dlc_above_eight_is_a_short_row_error(dlc, message):
    with pytest.raises(LogParseError) as err:
        parse_csv_log(_csv(f"timestamp,id,dlc,payload\n0.0,0x1,0,\n0.0,0x100,{dlc},AABB\n"))
    assert err.value.row == 2 and str(err.value) == f"{message} (row 2)"


@pytest.mark.parametrize("header", ["id,timestamp,dlc,payload", "timestamp,id,dlc,payload,note",
                                    "timestamp,id,payload", '"timestamp","id","dlc","payload"',
                                    "timestamp, id,dlc,payload", "",
                                    "\ufefftimestamp,id,dlc,payload"])
def test_csv_reader_takes_only_the_written_header(header):
    with pytest.raises(LogParseError) as err:
        parse_csv_log(f"{header}\n1.0,0x100,1,AB\n".encode())
    assert str(err.value) == "first line is not the header timestamp,id,dlc,payload"
    assert err.value.row is None


@pytest.mark.parametrize("read", [read_candump, parse_csv_log])
@pytest.mark.parametrize("data", ["(1.0) can0 100#00\n", ["(1.0) can0 100#00\n"],
                                  io.BytesIO(b"(1.0) can0 100#00\n"), bytearray(b"")],
                         ids=["str", "list", "stream", "bytearray"])
def test_readers_take_only_bytes(read, data):
    with pytest.raises(TypeError, match="a log is read from bytes"):
        read(data)


def test_empty_data_is_an_empty_log():
    for read, data in ((read_candump, b""), (parse_csv_log, b"timestamp,id,dlc,payload"),
                       (parse_csv_log, b"timestamp,id,dlc,payload\n")):
        assert len(read(data)) == 0
    with pytest.raises(LogParseError, match="first line is not the header"):  # a CSV has one
        parse_csv_log(b"")


def test_write_empty_log_header_only():
    sink = io.StringIO()
    write_csv_log(CanLog.from_frames(()), sink)
    assert sink.getvalue() == "timestamp,id,dlc,payload\n"


def _roundtrip(log):
    sink = io.StringIO()
    write_csv_log(log, sink)
    return parse_csv_log(sink.getvalue().encode())


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
    back = parse_csv_log(first.getvalue().encode())
    second = io.StringIO()
    write_csv_log(back, second)
    assert first.getvalue() == second.getvalue()
    for a, b in zip(log.frames, back.frames):
        assert (round(a.timestamp, 6), a.can_id, a.payload) == \
               (b.timestamp, b.can_id, b.payload)


# --- the CSV writer against a line-by-line reference ------------------------

def reference_csv(log):
    """The CSV text of ``log``, one f-string per frame."""
    width = 2 * canlog.MAX_PAYLOAD_BYTES
    hexes = log.payload.tobytes().hex().upper()
    return ",".join(CSV_HEADER) + "\n" + "".join(
        f"{t:.6f},0x{can_id:X},{dlc},{hexes[k * width:k * width + 2 * dlc]}\n"
        for k, (t, can_id, dlc) in enumerate(zip(log.times.tolist(), log.ids.tolist(),
                                                 log.dlc.tolist())))


def written_csv(log):
    sink = io.StringIO()
    write_csv_log(log, sink)
    return sink.getvalue()


def _neighbours(times):
    """Each of ``times`` or one of the doubles next to it."""
    return st.tuples(times, st.sampled_from([-np.inf, None, np.inf])).map(
        lambda pair: pair[0] if pair[1] is None else float(np.nextafter(pair[0], pair[1])))


_BOUND = canlog._DIGIT_TIMES_BELOW
WRITTEN_TIMES = st.one_of(
    st.floats(min_value=0, max_value=2e10),
    st.floats(min_value=0, allow_infinity=False),
    # odd multiples of 2**-7 are exact ties (odd multiples of 7812.5 us), and
    # those of 2**-8 lie on a quarter microsecond
    _neighbours(st.tuples(st.integers(0, 10 ** 9), st.sampled_from([2.0 ** -7, 2.0 ** -8]))
                .map(lambda pair: (2 * pair[0] + 1) * pair[1])),
    # the doubles nearest a decimal half microsecond, which may lie on either
    # side of it; below 1 s, the product with 1e6 often rounds onto the half
    _neighbours(st.tuples(st.integers(0, 1000), st.integers(0, 10 ** 6 - 1))
                .map(lambda pair: pair[0] + (pair[1] + 0.5) * 1e-6)),
    st.integers(0, 10 ** 6 - 1).map(lambda n: (n + 0.5) * 1e-6),
    # just below a whole second: the microseconds round up into the integer part
    _neighbours(st.tuples(st.integers(1, 10 ** 9), st.floats(0, 1e-6))
                .map(lambda pair: pair[0] - pair[1])),
    _neighbours(st.sampled_from([_BOUND, _BOUND - 5e-7, _BOUND - 1.0, 1e17, 1e300])),
    st.sampled_from([-0.0, 0.0]),
)


@given(st.lists(st.tuples(WRITTEN_TIMES,
                          st.integers(0, 0x7FF) | st.integers(0, 0x1FFFFFFF),
                          st.binary(max_size=8)), max_size=24),
       st.sampled_from([1, 2, 7, canlog.CHUNK_LINES]))
@settings(max_examples=400, deadline=None)
def test_writer_matches_the_line_by_line_reference(entries, chunk):
    log = CanLog.from_frames(CanFrame(t, cid, payload, extended=cid > 0x7FF)
                             for t, cid, payload in entries)
    with mock.patch.object(canlog, "CHUNK_LINES", chunk):
        assert written_csv(log) == reference_csv(log)


@pytest.mark.parametrize("t, text", [(-0.0, "-0.000000"), (0.0078125, "0.007812"),
                                     (0.0234375, "0.023438"), (3.5e-06, "0.000003"),
                                     (0.9999995, "1.000000"), (0.9999996, "1.000000"),
                                     (1e17, "100000000000000000.000000")])
def test_writer_formats_signs_ties_and_carries_as_python_does(t, text):
    log = CanLog.from_frames([CanFrame(0.0, 0x1), CanFrame(t, 0x1FFFFFFF, b"\x0a", True),
                              CanFrame(2e17, 0x7FF, b"\x00" * 8)])
    assert written_csv(log) == reference_csv(log)
    assert written_csv(log).splitlines()[2] == f"{text},0x1FFFFFFF,1,0A"


def test_save_log_writes_through_the_module_writer(tmp_path):
    # the benchmark's tracer times the writer as this module attribute
    log = generate_normal(default_bus(2.0, seed=3))
    path = tmp_path / "log.csv"
    with mock.patch.object(canlog, "write_csv_log", wraps=canlog.write_csv_log) as writer:
        save_log(log, str(path))
    assert writer.call_count == 1
    assert path.read_bytes() == reference_csv(log).encode("ascii")


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


PAYLOAD_ROWS = st.lists(st.tuples(st.integers(0, 8), st.binary(min_size=8, max_size=8),
                                  st.none() | st.tuples(st.integers(0, 7), st.integers(1, 255))),
                        min_size=1, max_size=6)
# how the [n, 8] payload sits in memory: its own array, every other column of
# a wider one, the last 8 columns of a 9-column one, Fortran order, or rows
# at a negative stride
PAYLOAD_LAYOUTS = ("contiguous", "strided", "offset", "fortran", "reversed")


@settings(max_examples=300, deadline=None)
@given(PAYLOAD_ROWS, st.sampled_from(PAYLOAD_LAYOUTS))
def test_log_refuses_a_payload_exactly_when_a_byte_past_dlc_is_set(rows, layout):
    n = len(rows)
    dlc = np.array([d for d, _, _ in rows], dtype=np.uint8)
    payload = np.zeros((n, 8), dtype=np.uint8)
    for k, (d, raw, stray) in enumerate(rows):
        payload[k, :d] = np.frombuffer(raw, dtype=np.uint8)[:d]
        if stray is not None:
            payload[k, stray[0]] = stray[1]
    if layout == "strided":
        wide = np.zeros((n, 16), dtype=np.uint8)
        wide[:, ::2] = payload
        payload = wide[:, ::2]
    elif layout == "offset":
        wide = np.zeros((n, 9), dtype=np.uint8)
        wide[:, 1:] = payload
        payload = wide[:, 1:]
    elif layout == "fortran":
        payload = np.asfortranarray(payload)
    elif layout == "reversed":
        # the same rows, read backwards from a copy in reverse order
        payload = payload[::-1].copy()[::-1]
    past_dlc = payload[np.arange(8) >= dlc[:, None]].any()
    columns = (np.zeros(n), np.arange(n), np.zeros(n, dtype=bool), dlc, payload)
    if past_dlc:
        with pytest.raises(ValueError, match="^payload bytes past dlc must be zero$"):
            CanLog(*columns)
    else:
        assert np.array_equal(CanLog(*columns).payload, payload)


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


# --- the byte pass against the line-by-line grammar reference ------------------

def assert_matches_reference(read, text):
    """``read`` gives the reference's frames for ``text``, or raises where
    the reference fails, naming the same row."""
    data = text.encode()
    assert read_frames(read, data) == reference_read(
        data, "candump" if read is read_candump else "csv")


def candump_line(t, can_id, payload):
    return f"({t // 10 ** 6}.{t % 10 ** 6:06d}) can0 {can_id:03X}#{payload.hex().upper()}\n"


def csv_line(t, can_id, payload):
    return (f"{t // 10 ** 6}.{t % 10 ** 6:06d},0x{can_id:X},{len(payload)},"
            f"{payload.hex().upper()}\n")


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
def test_candump_byte_pass_matches_the_line_reference(frames, mutants, last_newline):
    lines = [candump_line(*frame) for frame in frames]
    for pos, mutant in mutants:
        lines.insert(min(pos, len(lines)), mutant)
    text = "".join(lines)
    if not last_newline:
        text = text[:-1]
    assert_matches_reference(read_candump, text)


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
def test_csv_byte_pass_matches_the_line_reference(order, dropped, written, frames, mutants):
    # half the examples take the written header, the only one read
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
    assert_matches_reference(parse_csv_log, ",".join(header) + "\n" + "".join(lines))


# the CSV mutants as whole lines under the written header, and a payload of 9
# bytes with a matching dlc
CSV_MUTANT_LINES = (
    *[",".join({"timestamp": "1.5", "id": "0x100", "dlc": "1", "payload": "AB",
                name: value}[key] for key in CSV_HEADER) + "\n"
      for name, value in CSV_MUTANTS if name in CSV_HEADER],
    *[value for name, value in CSV_MUTANTS if name is None],
    "1.5,0x100,9," + "00" * 9 + "\n",
)


@pytest.mark.parametrize("reader, mutant", [
    *[pytest.param(read_candump, line, id=f"candump-{k}")
      for k, line in enumerate(CANDUMP_MUTANTS)],
    *[pytest.param(parse_csv_log, line, id=f"csv-{k}")
      for k, line in enumerate(CSV_MUTANT_LINES)]])
@given(st.lists(FRAME_FIELDS, min_size=3, max_size=8), st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_one_mutant_line_among_strict_lines_reads_as_the_line_reference(reader, mutant,
                                                                        frames, at):
    if reader is read_candump:
        header, lines = "", [candump_line(*frame) for frame in frames]
    else:
        header, lines = ",".join(CSV_HEADER) + "\n", [csv_line(*frame) for frame in frames]
    lines.insert(min(at, len(lines)), mutant)
    assert_matches_reference(reader, header + "".join(lines))


@st.composite
def mutated_logs(draw, fmt):
    """Strict lines of ``fmt`` with one byte replaced, inserted or deleted."""
    frames = draw(st.lists(FRAME_FIELDS, min_size=1, max_size=6))
    line = candump_line if fmt == "candump" else csv_line
    text = bytearray("".join(line(*frame) for frame in frames).encode())
    at = draw(st.integers(0, len(text) - 1))
    byte = draw(st.integers(0, 255) | st.sampled_from(b" ,#().0xX\n9Ff"))
    edit = draw(st.sampled_from(("replace", "insert", "delete")))
    if edit == "replace":
        text[at] = byte
    elif edit == "insert":
        text.insert(at, byte)
    else:
        del text[at]
    header = b"" if fmt == "candump" else ",".join(CSV_HEADER).encode() + b"\n"
    return header + bytes(text)


@pytest.mark.parametrize("read, fmt", [(read_candump, "candump"), (parse_csv_log, "csv")])
@given(st.data())
@settings(max_examples=400, deadline=None)
def test_readers_parse_or_raise_a_short_row_error_on_any_bytes(read, fmt, data):
    header = b"" if fmt == "candump" else ",".join(CSV_HEADER).encode() + b"\n"
    text = data.draw(st.binary(max_size=60) | st.binary(max_size=60).map(header.__add__)
                     | mutated_logs(fmt))
    try:
        assert isinstance(read(text), CanLog)
    except LogParseError as err:
        assert len(str(err)) < 100
    # a data line's error names its row, and only a bad header names none
    assert read_frames(read, text) == reference_read(text, fmt)


@pytest.mark.parametrize("reader, good, bad, header", [
    (read_candump, "(1.000000) can0 100#00\n", "(1.000000) can0 100#0\n", ""),
    (parse_csv_log, "1.000000,0x100,1,00\n", "1.000000,0x100,1,0\n", "timestamp,id,dlc,payload\n"),
])
def test_bad_line_deep_in_the_stream_reports_its_row(reader, good, bad, header):
    row = 2 * canlog.CHUNK_LINES + 7
    text = header + good * (row - 1) + bad + good * 5
    with pytest.raises(LogParseError, match="odd payload hex length") as err:
        reader(text.encode())
    assert err.value.row == row


def _candump(*lines):
    return "".join(f"{line}\n" for line in lines)


def _csv_log(*lines):
    return _candump(",".join(CSV_HEADER), *lines)


# around 2**53 = 9007199254740992 in 16 and 17 digits, 0 and 22 decimals, and
# past 18 digits on either side of the "."
TIMESTAMPS = ("9007199254740991", "9007199254740992", "9007199254740993",
              "900719925474099.1", "900719925474099.3", "90071992547409.95",
              "0.9007199254740991", "0.9007199254740993", "09007199254740991",
              "12345678901234567", "1234567890123456.7", "7", "7.", ".5",
              "0.0000000000000000000001", "1.0000000000000000000001",
              "1" * 19, "1" * 25 + ".5", "0." + "5" * 19, "9" * 400, "1" * 20 + "x", "1.2.3", ".")


@pytest.mark.parametrize("reader, text", [
    *[(read_candump, _candump(f"({ts}) can0 100#00")) for ts in TIMESTAMPS],
    *[(parse_csv_log, _csv_log(f"{ts},0x100,1,00")) for ts in TIMESTAMPS],
    *[(read_candump, _candump(f"(1.0) can0 {cid}#00"))
      for cid in ("7FF", "800", "FFF", "0800", "1FFFFFFF", "20000000", "01FFFFFFF")],
    *[(parse_csv_log, _csv_log(f"1.0,{cid},1,00")) for cid in
      ("2047", "2048", "536870911", "536870912", "0x7FF", "0x800", "0x1FFFFFFF", "0x20000000",
       "0x01FFFFFFF", "0x0000000100", "00000000256", "0X0001FFFF")],
    # a field missing or empty, or a wrong bracket
    *[(read_candump, _candump(line)) for line in
      ("(1.0)  100#00", "1.0) can0 100#00", "(1.0] can0 100#00", "() can0 100#00",
       "(.) can0 100#00", "(1.0) can0 #00", "( can0 100#00", " (1.0) can0 100#00")],
    *[(parse_csv_log, _csv_log(line)) for line in
      (",0x100,1,00", ".,0x100,1,00", "1.0,,0,", "1.0,12A,1,00", "1.0,7ff,1,00")],
    (read_candump, _candump("(1.0) can0 100#", "(2.0) can0 100#0011223344556677")),
    (parse_csv_log, _csv_log("1.0,0x100,0,", "2.0,0x100,8,0011223344556677")),
    (read_candump, _candump("(1.0) can0 100#001122334455667788")),
    (parse_csv_log, _csv_log("1.0,0x100,9,001122334455667788")),
    (parse_csv_log, _csv_log("1.0,0x100,01,")),
    *[(read_candump, _candump(f"(1.5) {iface} 100#00", f"(2.5) {iface} 1FFFFFFF#AB"))
      for iface in ("can#0", "can(0", "can)0", "can.0", "#", "(", ")", ".")],
    # the last line without its final newline, and no line at all
    (read_candump, _candump(*[f"({k}.0) can0 100#00" for k in range(4)])[:-1]),
    (read_candump, "(1.0) can0 100#00"),
    (read_candump, ""),
    (parse_csv_log, _csv_log(*[f"{k}.0,0x100,1,00" for k in range(4)])[:-1]),
    (parse_csv_log, _csv_log("1.0,0x100,1,00")[:-1]),
    (parse_csv_log, _csv_log()), (parse_csv_log, _csv_log()[:-1]), (parse_csv_log, ""),
])
def test_byte_pass_matches_the_line_reference_at_its_edges(reader, text):
    assert_matches_reference(reader, text)


def test_byte_pass_reads_mixed_traffic_and_written_logs():
    # real traffic mixes payload lengths by id, id widths and interfaces
    frames = [CanFrame(k / 8, can_id, bytes(range(k % 9)), extended)
              for k, (can_id, extended) in enumerate(((0x1F4, False), (0x18FEF100, True)) * 18)]
    lines = [f"({f.timestamp:.6f}) {'vcan1' if k % 3 else 'can0'} "
             f"{f.can_id:0{8 if f.extended else 3}X}#{f.payload.hex()}\n"
             for k, f in enumerate(frames)]
    assert read_candump("".join(lines).encode()) == CanLog.from_frames(frames)
    log = CanLog.from_frames(frames + list(generate_normal(default_bus(5.0, seed=3))))
    sink = io.StringIO()
    write_csv_log(log, sink)
    assert len(parse_csv_log(sink.getvalue().encode())) == len(log)
    # a whole-second timestamp followed by one with decimals
    assert len(parse_csv_log(_csv_log("7,0x100,1,AB", "7.5,0x100,1,AB").encode())) == 2


@pytest.mark.parametrize("cid, dlc, message", [
    ("9" * 5000, "1", "invalid id"), ("256", "1", "invalid id"),
    ("0" * 5000 + "1", "1", "invalid id"), ("0x100", "9" * 5000, "invalid dlc"),
    ("0x100", "01", "invalid dlc"), ("0x100", "0" * 5000 + "1", "invalid dlc")],
    ids=["5000-digit id", "decimal id", "zero-padded id", "5000-digit dlc", "two-digit dlc",
         "zero-padded dlc"])
def test_csv_decimal_id_or_multi_digit_dlc_is_a_short_row_error(cid, dlc, message):
    with pytest.raises(LogParseError) as err:
        parse_csv_log(_csv_log("0.0,0x1,0,", f"1.0,{cid},{dlc},AB").encode())
    assert str(err.value) == f"{message} (row 2)" and err.value.row == 2


@pytest.mark.parametrize("cid", ["0x20000000", "0x123456789", "0x" + "F" * 5000,
                                 "0x000000100"], ids=lambda cid: f"{len(cid)} characters")
def test_csv_id_past_29_bits_or_8_digits_is_a_short_row_error(cid):
    with pytest.raises(LogParseError) as err:
        parse_csv_log(_csv_log("0.0,0x1,0,", f"1.0,{cid},1,AB").encode())
    assert str(err.value) == "id out of range (row 2)" and err.value.row == 2


def test_csv_ids_are_0x_and_1_to_8_hex_digits():
    ids = {"0x100": 0x100, "0X7ff": 0x7FF, "0x800": 0x800, "0x1FFFFFFF": 0x1FFFFFFF,
           "0x00000100": 0x100, "0x01FFFFFF": 0x1FFFFFF, "0x0": 0}
    lines = [f"{k}.0,{text},1,AB" for k, text in enumerate(ids)]
    log = parse_csv_log(_csv_log(*lines).encode())
    assert log == CanLog.from_frames(CanFrame(float(k), can_id, b"\xab", can_id > 0x7FF)
                                     for k, can_id in enumerate(ids.values()))
