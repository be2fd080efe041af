"""Streaming ``detect``: the log read in batches, each batch printing the
verdicts of the windows it completed, from scores that depend only on their
own row; and ``simulate``, ``inject`` and ``extract``, whose batches give
the bytes of the whole-log code, in memory that does not grow with the log."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import read_frames, reference_read
from hypothesis import given, settings
from hypothesis import strategies as st

import canoc
from canoc import canlog, features, simulate
from canoc.canlog import (CSV_HEADER, CanLog, LateFrameError, LogParseError, iter_log,
                          join_logs, load_log)
from canoc.cli import main
from canoc.features import (FeatureSpec, IdVocabulary, apply_scaler, extract_matrix,
                            fit_scaler, iter_windows, segment_windows)
from canoc.models import KernelSpec, MODEL_FAMILIES, fit_model, save_model, score_samples
from canoc.simulate import default_bus, generate_normal


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def log_text(frames, fmt, newline="\n"):
    """The text of (t, id, payload) frames in file order: candump, the CSV
    that write_csv_log writes, or a CSV under another header, which the
    readers reject."""
    if fmt == "candump":
        lines = [f"({t:.6f}) can0 {i:03X}#{p.hex().upper()}" for t, i, p in frames]
    elif fmt == "csv":
        lines = [",".join(CSV_HEADER)] + [f"{t:.6f},0x{i:X},{len(p)},{p.hex().upper()}"
                                          for t, i, p in frames]
    else:
        lines = ["id,timestamp,payload"] + [f"0x{i:X},{t:.6f},{p.hex()}" for t, i, p in frames]
    return "".join(line + newline for line in lines)


# --- the batch reader ---------------------------------------------------------

FRAMES = st.lists(st.tuples(st.integers(0, 4 * 10 ** 6), st.integers(0, 0x7FF),
                            st.binary(max_size=8)), max_size=24)
# whole lines placed among the frames, which the readers take or reject
ODD_LINES = ("", "   ", "(1.0)  can0 100#00", "(1.0) can0 100#0", "x,0x100,0,",
             "1.5,0x100,1,AB", '"1.5",0x100,1,AB', '2.5,0x100,1,"AB"', "2.5,0x100,1,\"A\nB\"")


@given(FRAMES, st.sampled_from(("candump", "csv", "other")),
       st.sampled_from(("\n", "\r\n", "\r")),
       st.lists(st.tuples(st.integers(0, 30), st.sampled_from(ODD_LINES)), max_size=3),
       st.sampled_from((1, 5, 23, 64, canlog.READ_BYTES)), st.booleans())
@settings(max_examples=200, deadline=None)
def test_load_log_joins_batches_that_read_as_the_line_reference(
        tmp_path_factory, frames, fmt, newline, odd, read_bytes, last_newline):
    frames = [(t / 10 ** 6, i, p) for t, i, p in frames]
    lines = log_text(frames, fmt).splitlines(keepends=True)
    for at, line in odd:
        lines.insert(min(at, len(lines)), line + "\n")
    text = "".join(lines).replace("\n", newline)
    if not last_newline:
        text = text[:-len(newline)]
    path = tmp_path_factory.mktemp("log") / "log"
    path.write_bytes(text.encode())

    # the reference reads the text as a text-mode file gives it
    data = text.encode().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    expected = reference_read(data, "candump" if data.startswith(b"(") else "csv")
    with mock.patch.object(canlog, "READ_BYTES", read_bytes):
        with open(path, "rb") as f:
            cuts = list(canlog._file_batches(f))
        # batches of whole lines that cover the text
        assert b"".join(cuts) == data
        assert all(raw.endswith(b"\n") for raw in cuts[:-1])
        assert read_frames(lambda _: load_log(str(path)), None) == expected
        try:
            batches = list(iter_log(str(path)))
        except LogParseError as err:
            assert str(err).startswith(f"log file {path}: ")
            return
    assert all((b.times[1:] >= b.times[:-1]).all() for b in batches)


@pytest.mark.parametrize("fmt", ["candump", "csv"])
@pytest.mark.parametrize("bad_row", [5, 6, 7])
def test_error_rows_count_over_the_whole_file_across_a_batch_edge(tmp_path, fmt, bad_row):
    # READ_BYTES is two 23-byte candump lines: candump rows 5 and 6 make the
    # third batch and row 7 starts the fourth. A CSV's header is line 1 and
    # its rows take 20 bytes: data row 5 ends the third batch and row 6
    # starts the fourth
    frames = [(k / 4, 0x100, b"\x01") for k in range(12)]
    lines = log_text(frames, fmt).splitlines(keepends=True)
    at = bad_row - 1 + (fmt != "candump")
    lines[at] = lines[at].replace("#01", "#1").replace(",01", ",1")
    path = tmp_path / "log"
    path.write_text("".join(lines))
    with mock.patch.object(canlog, "READ_BYTES", 46), pytest.raises(LogParseError) as err:
        load_log(str(path))
    assert err.value.row == bad_row
    assert str(err.value).startswith(f"log file {path}: ")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_pipe_is_read_batch_by_batch_as_its_lines_arrive(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    first_read, waited_out = threading.Event(), []

    def write():
        with open(pipe, "w") as f:
            f.write(log_text([(k / 10, 0x100, b"") for k in range(5)], "candump"))
            f.flush()
            waited_out.append(not first_read.wait(5))
            f.write(log_text([(1.0, 0x100, b"")], "candump"))

    writer = threading.Thread(target=write)
    writer.start()
    # the 5 lines take 105 bytes: the first read ends 1 byte into the 4th line
    with mock.patch.object(canlog, "READ_BYTES", 64):
        batches = iter_log(str(pipe))
        first = [next(batches), next(batches)]  # while the writer holds the pipe open
        first_read.set()
        rest = list(batches)
    writer.join(10)
    assert not writer.is_alive()
    # the 4th line's tail is read with the 5th, before the pause
    assert waited_out == [False] and [len(b) for b in first] == [3, 2]
    assert [len(b) for b in rest] == [1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_detect_on_a_pipe_prints_a_verdict_as_soon_as_its_lines_arrive(tmp_path):
    # 5,000 lines, fewer than a batch, and then a pause of up to 4 s: the
    # verdicts of the windows they complete come before the pause ends
    log_path, model_path, pipe = tmp_path / "log", tmp_path / "model.json", tmp_path / "pipe"
    log_path.write_text(log_text([(k / 1000, 0x100, b"\x01") for k in range(5000)], "candump"))
    model_file(model_path, log_path, "svdd", FeatureSpec(VOCAB))
    os.mkfifo(pipe)
    written, printed = [], threading.Event()

    class Stdout(io.StringIO):
        def write(self, text):
            if not printed.is_set():
                self.at = time.monotonic()
                printed.set()
            return super().write(text)

    def write():
        with open(pipe, "w") as f:
            f.write(log_path.read_text())
            f.flush()
            written.append(time.monotonic())
            printed.wait(4)

    writer = threading.Thread(target=write)
    writer.start()
    with contextlib.redirect_stdout(Stdout()) as out:
        code = main(["detect", "--model", str(model_path), "--in", str(pipe)])
    writer.join(10)
    assert not writer.is_alive()
    assert code in (0, 4) and out.getvalue().count("\n") == 5
    assert out.at - written[0] < 0.5


def test_join_logs_sorts_stably_and_checks_nothing_again():
    a = CanLog.from_frames([canlog.CanFrame(1.0, 1), canlog.CanFrame(3.0, 2)])
    b = CanLog.from_frames([canlog.CanFrame(1.0, 3), canlog.CanFrame(2.0, 4)])
    joined = join_logs([a, b])
    assert joined.ids.tolist() == [1, 3, 4, 2]
    assert not joined.times.flags.writeable
    assert join_logs([a]) is a and len(join_logs([])) == 0


# --- the windower ---------------------------------------------------------------

def window_key(windows):
    return [(w.start, w.length, w.partial, w.frames.times.tolist(), w.frames.ids.tolist())
            for w in windows]


@given(st.lists(st.integers(0, 8000), min_size=1, max_size=60),
       st.lists(st.integers(0, 60), max_size=6),
       st.sampled_from(((1.0, None), (2.0, 0.5), (0.5, 1.5), (0.3, 0.3), (1.0, 0.7))))
@settings(max_examples=300, deadline=None)
def test_windows_of_sorted_batches_are_the_windows_of_the_joined_log(ticks, cuts, spec):
    length, stride = spec
    times = sorted(t / 1000 for t in ticks)
    log = CanLog.from_frames(canlog.CanFrame(t, k % 5) for k, t in enumerate(times))
    edges = [0, *sorted(c for c in cuts if c < len(log)), len(log)]
    batches = [log[a:b] for a, b in zip(edges, edges[1:])]
    streamed = [w for group in iter_windows(batches, length, stride) for w in group]
    assert window_key(streamed) == window_key(segment_windows(log, length, stride))


def _log(*times):
    return CanLog.from_frames(canlog.CanFrame(t, 1) for t in times)


def test_frames_out_of_order_inside_an_open_window_are_sorted():
    batches = [_log(0.0, 0.5, 1.4), _log(1.2, 2.5)]
    streamed = [w for group in iter_windows(batches, 1.0) for w in group]
    assert window_key(streamed) == window_key(segment_windows(join_logs(batches), 1.0))


def test_each_batch_yields_the_windows_it_completed():
    groups = list(iter_windows([_log(0.0, 0.5), _log(1.0), _log(2.5), _log(2.6, 3.0)], 1.0))
    assert [[w.start for w in group] for group in groups] == [[0.0], [1.0], [2.0], [3.0]]
    assert [w.partial for group in groups for w in group] == [False, False, False, True]


def test_frame_before_a_yielded_window_end_is_late():
    windows = iter_windows([_log(0.0, 2.1), _log(1.5)], 1.0)
    assert [w.start for w in next(windows)] == [0.0, 1.0]
    with pytest.raises(LateFrameError, match="frame at 1.500000 s is earlier than 2.000000 s"):
        next(windows)

    def reader():  # a generator learns of the late frame before it is raised
        yield _log(0.0, 2.1)
        try:
            yield _log(1.5)
        except LateFrameError as err:
            raise LogParseError("seen by the reader") from err

    with pytest.raises(LogParseError, match="seen by the reader"):
        list(iter_windows(reader(), 1.0))


def test_too_many_windows_is_found_on_the_span_read_so_far():
    windows = iter_windows([_log(0.0), _log(1e10), _log(2e10)], 1.0)
    with pytest.raises(ValueError, match="1e\\+10 s log at a 1 s stride needs 10000000001"):
        next(windows)


# --- detect against the whole-log reference --------------------------------------

VOCAB = IdVocabulary((0x100, 0x200, 0x300))


def traffic():
    """About 12 s of frames in file order: periodic ids, foreign ids, frames on
    whole and half seconds (window edges), an empty stretch, and pairs of
    frames written out of order inside one half-second cell."""
    frames = [(k / 10, 0x100, b"\x01") for k in range(60)]
    frames += [(k / 4, 0x200, b"") for k in range(24)]
    frames += [(k / 2 + 0.01, 0x300, b"\xaa\xbb") for k in range(12)]
    frames += [(1.37, 0x7AB, b""), (2.0, 0x7AB, b""), (4.5, 0x123, b"\x00")]
    frames += [(9.5 + k / 10, 0x100, b"\x01") for k in range(25)]  # after 3.5 s of silence
    frames.sort(key=lambda frame: frame[0])
    for pair in ((3.21, 0x100), (3.33, 0x200)), ((10.61, 0x300), (10.72, 0x100)):
        at = next(k for k, frame in enumerate(frames) if frame[0] > pair[0][0])
        frames[at:at] = [(pair[1][0], pair[1][1], b""), (pair[0][0], pair[0][1], b"")]
    return frames


def reference(log_path, model, spec):
    """detect's exit code and stdout, from the whole log at once."""
    windows = segment_windows(load_log(str(log_path)), spec.window, spec.stride)
    X, _ = extract_matrix(windows, spec.vocab, spec.stdev_mode)
    scores = score_samples(model, X)
    out = "".join(f"{w.start:.6f},{s:.9g},{'anomaly' if s > 0 else 'normal'}\n"
                  for w, s in zip(windows, scores.tolist()))
    return (4 if (scores > 0).any() else 0), out


def model_file(path, log_path, family, spec):
    windows = segment_windows(load_log(str(log_path)), spec.window, spec.stride)
    X, _ = extract_matrix(windows, spec.vocab, spec.stdev_mode)
    scaler = fit_scaler(X)
    model = fit_model(family, apply_scaler(scaler, X), scaler=scaler)
    save_model(model, str(path), spec)
    return model


@pytest.mark.parametrize("fmt, newline", [("candump", "\n"), ("csv", "\n"),
                                          ("candump", "\r\n"), ("csv", "\r\n")])
@pytest.mark.parametrize("window, stride", [(1.0, None), (2.0, 0.5), (0.5, 1.5)])
@pytest.mark.parametrize("family", ["svdd", "gesvdd"])
def test_streamed_detect_prints_what_the_whole_log_gives(tmp_path, capsys, fmt, newline,
                                                         window, stride, family):
    log_path, model_path = tmp_path / "log", tmp_path / "model.json"
    log_path.write_bytes(log_text(traffic(), fmt, newline).encode())
    spec = FeatureSpec(VOCAB, window, stride)
    expected = reference(log_path, model_file(model_path, log_path, family, spec), spec)
    assert expected[1].count("\n") > 5
    # batches of one line, of one or two, of two or three, of about eight, and the whole log
    for read_bytes in (1, 23, 64, 200, canlog.READ_BYTES):
        with mock.patch.object(canlog, "READ_BYTES", read_bytes):
            code, out, err = run(capsys, "detect", "--model", model_path, "--in", log_path)
        assert (code, out, err) == (*expected, ""), read_bytes


def bad_payload(line):
    return line.replace("#01", "#1").replace(",01", ",1")


@pytest.mark.parametrize("fmt", ["candump", "csv"])
def test_malformed_line_after_the_first_batch_prints_the_earlier_verdicts_first(
        tmp_path, capsys, fmt):
    log_path, model_path = tmp_path / "log", tmp_path / "model.json"
    frames = [(k / 10, 0x100, b"\x01") for k in range(100)]
    log_path.write_text(log_text(frames, fmt))
    spec = FeatureSpec(VOCAB)
    _, expected = reference(log_path, model_file(model_path, log_path, "svdd", spec), spec)
    lines = log_path.read_text().splitlines(keepends=True)
    # the frame at 6.0 s; 160-byte reads put it in the batch of rows 56-62
    # (23-byte candump lines) or 55-62 (20-byte CSV rows after a 25-byte header)
    row = 61
    lines[row - (fmt == "candump")] = bad_payload(lines[row - (fmt == "candump")])
    log_path.write_text("".join(lines))
    with mock.patch.object(canlog, "READ_BYTES", 160):
        code, out, err = run(capsys, "detect", "--model", model_path, "--in", log_path)
    # the batches before it hold frames up to 5.4 s (candump) or 5.3 s
    # (CSV): windows 0-4 are complete
    assert code == 2 and out == "".join(expected.splitlines(keepends=True)[:5])
    assert err.startswith(f"error: log file {log_path}: odd payload hex length")
    assert err.endswith(f"(row {row})\n")


@pytest.mark.parametrize("fmt", ["candump", "csv"])
def test_frame_before_a_printed_window_end_is_an_input_error_naming_its_row(
        tmp_path, capsys, fmt):
    log_path, model_path = tmp_path / "log", tmp_path / "model.json"
    frames = [(k / 10, 0x100, b"\x01") for k in range(50)]
    frames[45:45] = [(4.52, 0x100, b"\x01"), (1.5, 0x200, b"")]
    log_path.write_text(log_text(frames, fmt))  # the late frame is row 47
    spec = FeatureSpec(VOCAB)
    model_file(model_path, log_path, "svdd", spec)
    code, out, err = run(capsys, "detect", "--model", model_path, "--in", log_path)
    assert code in (0, 4) and out.count("\n") == 5  # one batch: sorted as today
    with mock.patch.object(canlog, "READ_BYTES", 160):
        code, out, err = run(capsys, "detect", "--model", model_path, "--in", log_path)
    # 160-byte reads put the late frame in the batch of rows 42-48 (candump)
    # or 47-52 (CSV), and the rows before them end at 4.0 s (candump) or
    # 4.52 s (CSV): windows 0-3 are printed, and the last of them ends at 4 s
    assert code == 2 and out.count("\n") == 4
    assert err == (f"error: log file {log_path}: frame at 1.500000 s is earlier than "
                   "4.000000 s, the end of a window already printed (row 47)\n")


@pytest.mark.parametrize("fmt", ["candump", "csv"])
def test_the_late_frame_named_is_the_first_in_file_order_not_the_earliest(
        tmp_path, capsys, fmt):
    log_path, model_path = tmp_path / "log", tmp_path / "model.json"
    frames = [(k / 10, 0x100, b"\x01") for k in range(50)]
    frames[46:46] = [(2.0, 0x200, b""), (1.5, 0x200, b"")]  # rows 47 and 48
    log_path.write_text(log_text(frames, fmt))
    spec = FeatureSpec(VOCAB)
    model_file(model_path, log_path, "svdd", spec)
    with mock.patch.object(canlog, "READ_BYTES", 160):
        code, out, err = run(capsys, "detect", "--model", model_path, "--in", log_path)
    # both late frames are in one batch, after windows 0-3 are printed
    assert code == 2 and out.count("\n") == 4
    assert err == (f"error: log file {log_path}: frame at 2.000000 s is earlier than "
                   "4.000000 s, the end of a window already printed (row 47)\n")


def test_a_file_of_blank_lines_is_a_csv_without_a_header(tmp_path, capsys):
    log_path, model_path = tmp_path / "log", tmp_path / "model.json"
    log_path.write_text(log_text([(k / 10, 0x100, b"") for k in range(30)], "candump"))
    model_file(model_path, log_path, "svdd", FeatureSpec(VOCAB))
    log_path.write_text("\n \n\n")
    with mock.patch.object(canlog, "READ_BYTES", 1):
        code, out, err = run(capsys, "detect", "--model", model_path, "--in", log_path)
    assert code == 2 and out == ""
    assert err == (f"error: log file {log_path}: first line is not the header "
                   "timestamp,id,dlc,payload\n")


@pytest.mark.parametrize("fmt", ["candump", "csv"])
@pytest.mark.parametrize("broken", [False, True], ids=["whole", "bad row"])
def test_detect_reads_standard_input_as_it_reads_the_file(tmp_path, fmt, broken):
    log_path, model_path = tmp_path / "log", tmp_path / "model.json"
    log_path.write_text(log_text(traffic(), fmt))
    model_file(model_path, log_path, "svdd", FeatureSpec(VOCAB))
    if broken:
        lines = log_path.read_text().splitlines(keepends=True)
        lines[60] = bad_payload(lines[60])
        log_path.write_text("".join(lines))

    def detect(path, stdin):
        done = subprocess.run([sys.executable, "-m", "canoc.cli", "detect", "--model",
                               str(model_path), "--in", path], input=stdin, env=child_env(),
                              capture_output=True)
        return done.returncode, done.stdout, done.stderr

    code, out, err = detect(str(log_path), b"")
    if broken:
        assert code == 2 and err.startswith(f"error: log file {log_path}: ".encode())
    else:
        assert code in (0, 4) and out.count(b"\n") > 5
    assert detect("-", log_path.read_bytes()) == (
        code, out, err.replace(f"log file {log_path}: ".encode(), b"log file -: "))


# --- simulate, inject and extract against the whole-log reference -------------------

def reference_normal(spec):
    """The traffic of ``spec`` drawn whole: each ECU's payload rows in one
    draw, and all frames sorted at once."""
    logs = []
    for ecu, stream in zip(spec.ids, np.random.SeedSequence(spec.seed).spawn(len(spec.ids))):
        rng = np.random.default_rng(stream)
        count = int(np.ceil(spec.duration / ecu.period)) + 2
        amp = ecu.jitter * ecu.period
        t = np.maximum(np.arange(count) * ecu.period + rng.uniform(-amp, amp, count), 0.0)
        t.sort(kind="stable")
        keep = t < spec.duration
        payload = rng.integers(0, 256, size=(count, 8), dtype=np.uint8)
        n = int(keep.sum())
        logs.append(CanLog(t[keep], np.full(n, ecu.can_id), np.zeros(n, dtype=bool),
                           np.full(n, 8), payload[keep]))
    return join_logs(logs)


def written(labeled):
    """The CSV log and label sidecar texts of a labeled log, each written at once."""
    log, labels = io.StringIO(), io.StringIO()
    canlog.write_csv_log(labeled.log, log)
    simulate.write_labels(labeled.frame_labels, labels)
    return log.getvalue(), labels.getvalue()


def read_whole(log_path, labels_path):
    """A labeled CSV log read at once: its rows parsed together, and its
    labels sorted stably by the times of their rows."""
    data = log_path.read_bytes()
    times = [float(line.split(b",")[0]) for line in data.splitlines()[1:]]
    labels = labels_path.read_text().splitlines()[1:]
    return simulate.LabeledLog(canlog.parse_csv_log(data),
                               [labels[k] for k in np.argsort(times, kind="stable")])


# log reads of one line, of one or two, of about three, of about ten, and whole;
# written chunks of one, two and seven lines, and whole; label reads of one, two,
# seven and 64 characters, and whole
READS = [(23, 1, 1), (40, 2, 2), (64, 7, 7), (200, 7, 64),
         (canlog.READ_BYTES, canlog.CHUNK_LINES, simulate.LABEL_READ)]


def small_reads(read_bytes, chunk_lines, label_read):
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(canlog, "READ_BYTES", read_bytes))
    stack.enter_context(mock.patch.object(canlog, "CHUNK_LINES", chunk_lines))
    stack.enter_context(mock.patch.object(simulate, "CHUNK_LINES", chunk_lines))
    stack.enter_context(mock.patch.object(simulate, "LABEL_READ", label_read))
    return stack


@pytest.mark.parametrize("bus", ["default", "ties"])
def test_simulated_slices_are_the_traffic_drawn_whole(tmp_path, capsys, bus):
    # jitterless periods of 1/8, 1/4 and 1/2 s tie on every quarter second
    argv = (["--duration", 5.0, "--seed", 3] if bus == "default" else
            ["--duration", 10.0, "--bus-ids", "0x300,0x100,0x200",
             "--bus-periods", "0.25,0.5,0.125", "--bus-jitter", 0])
    spec = default_bus(5.0, seed=3) if bus == "default" else simulate.BusSpec(
        tuple(simulate.EcuSpec(i, p, 0.0) for i, p in ((0x300, 0.25), (0x100, 0.5),
                                                       (0x200, 0.125))), 10.0)
    expected = reference_normal(spec)
    text = written(simulate.LabeledLog(expected, ("normal",) * len(expected)))
    for chunk_lines in (2, 7, 64, simulate.CHUNK_LINES):  # frames per slice, about
        with small_reads(canlog.READ_BYTES, chunk_lines, simulate.LABEL_READ):
            assert generate_normal(spec) == expected
            code, _, err = run(capsys, "simulate", "--out", tmp_path / "log.csv", *argv)
        assert code == 0, err
        assert ((tmp_path / "log.csv").read_text(), (tmp_path / "log.csv.labels.csv").read_text()
                ) == text, chunk_lines


def labeled_traffic(tmp_path, late=False):
    """The frames of traffic(), out of order in places, as a CSV log with
    labels of three kinds in its sidecar; ``late`` moves three early frames
    to the end of the file."""
    log_path, labels_path = tmp_path / "base.csv", tmp_path / "base.labels.csv"
    frames = traffic()
    if late:
        frames += [frames.pop(k) for k in (40, 20, 5)]
    log_path.write_text(log_text(frames, "csv"))
    count = len(frames)
    labels_path.write_text("label\n" + "".join(
        ("replay" if k % 7 == 3 else "zero_id" if k % 11 == 5 else "normal") + "\n"
        for k in range(count)))
    return log_path, labels_path


# a replay whose copies of frames on quarter seconds tie with base frames, and floods
SCENARIOS = [
    (["--kind", "replay", "--segment", "0.5:1.5", "--start", 4, "--end", 5, "--repeat", 2],
     simulate.AttackScenario(kind="replay", window=(4.0, 5.0), replay_segment=(0.5, 1.5),
                             repeat=2)),
    (["--kind", "random_id", "--rate", 40, "--start", 2, "--end", 11, "--seed", 4],
     simulate.AttackScenario(kind="random_id", rate=40.0, window=(2.0, 11.0), seed=4)),
    (["--kind", "zero_id", "--rate", 30, "--start", 0, "--end", 12, "--payload-len", 2],
     simulate.AttackScenario(kind="zero_id", rate=30.0, window=(0.0, 12.0),
                             payload_length=2)),
]


@pytest.mark.parametrize("flags, scenario", SCENARIOS, ids=["replay", "random_id", "zero_id"])
@pytest.mark.parametrize("late", [False, True], ids=["in order", "late frames"])
def test_streamed_inject_writes_what_the_whole_log_gives(tmp_path, capsys, flags, scenario,
                                                         late):
    # a late frame is held back by every batch before it, not only the last
    log_path, labels_path = labeled_traffic(tmp_path, late)
    expected = written(simulate.inject(read_whole(log_path, labels_path), scenario))
    out = tmp_path / "out.csv"
    for read_bytes, chunk_lines, label_read in READS:
        with small_reads(read_bytes, chunk_lines, label_read):
            code, _, err = run(capsys, "inject", "--in", log_path, "--labels", labels_path,
                               "--out", out, *flags)
        assert code == 0, err
        assert (out.read_text(), Path(f"{out}.labels.csv").read_text()) == expected, read_bytes


@pytest.mark.parametrize("window, stride", [(1.0, None), (2.0, 0.5), (0.5, 1.5)])
@pytest.mark.parametrize("vocab", [None, VOCAB, IdVocabulary((0x100, 0x300), False)],
                         ids=["own ids", "vocabulary file", "no other bucket"])
@pytest.mark.parametrize("mode", ["gaps", "timestamps"])
def test_streamed_extract_writes_what_the_whole_log_gives(tmp_path, capsys, window, stride,
                                                          vocab, mode):
    log_path, labels_path = labeled_traffic(tmp_path)
    labeled = read_whole(log_path, labels_path)
    spec = FeatureSpec(vocab or features.build_vocabulary(labeled.log), window, stride, mode)
    windows = segment_windows(labeled.log, window, stride)
    X, labels = extract_matrix(windows, spec.vocab, mode,
                               simulate.label_windows(labeled, windows))
    expected = io.StringIO()
    features.write_feature_csv(expected, X, labels, spec.vocab)
    out, vocab_path = tmp_path / "f.csv", tmp_path / "vocab.json"
    if vocab is None:
        flags = ["--window", window, "--stdev-mode", mode] + (["--stride", stride] if stride
                                                             else [])
    else:
        vocab_path.write_text(json.dumps(features.spec_to_dict(spec)))
        flags = ["--vocab", vocab_path]
    for read_bytes, chunk_lines, label_read in READS:
        with small_reads(read_bytes, chunk_lines, label_read):
            code, _, err = run(capsys, "extract", "--in", log_path, "--labels", labels_path,
                               "--out", out, *flags)
        assert code == 0, err
        assert out.read_text() == expected.getvalue(), read_bytes


@given(st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["normal", "replay", "x y"])),
                min_size=1, max_size=40),
       st.sampled_from(READS))
@settings(max_examples=100, deadline=None)
def test_labeled_batches_carry_the_labels_of_the_whole_log_sort(rows, reads):
    # frames out of order, tied on eighths of a second, each with its own id
    with contextlib.ExitStack() as stack:
        d = stack.enter_context(tempfile.TemporaryDirectory())
        log_path, labels_path = Path(d) / "log.csv", Path(d) / "log.labels.csv"
        log_path.write_text(log_text([(t / 8, k, b"") for k, (t, _) in enumerate(rows)], "csv"))
        labels_path.write_text("label\n" + "".join(label + "\n" for _, label in rows))
        stack.enter_context(small_reads(*reads))
        joined = simulate.LabeledLog(join_logs(list(simulate.iter_labeled(str(log_path),
                                                                          str(labels_path)))))
        assert joined.log == read_whole(log_path, labels_path).log
    order = np.argsort([t for t, _ in rows], kind="stable").tolist()
    assert list(zip(joined.log.ids.tolist(), joined.frame_labels)) == [
        (k, rows[k][1]) for k in order]


@pytest.mark.parametrize("fmt", ["candump", "csv"])
def test_extract_names_the_row_of_a_frame_before_a_window_it_extracted(tmp_path, capsys, fmt):
    log_path = tmp_path / "log"
    frames = [(k / 10, 0x100, b"\x01") for k in range(50)]
    frames[46:46] = [(2.0, 0x200, b""), (1.5, 0x200, b"")]  # rows 47 and 48
    log_path.write_text(log_text(frames, fmt))
    with mock.patch.object(canlog, "READ_BYTES", 160):
        code, out, err = run(capsys, "extract", "--in", log_path, "--out", tmp_path / "f.csv")
    assert (code, out) == (2, "") and not (tmp_path / "f.csv").exists()
    assert err == (f"error: log file {log_path}: frame at 2.000000 s is earlier than "
                   "4.000000 s, the end of a window already printed (row 47)\n")


# --- files named in decode and JSON errors -----------------------------------------

@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    log, feats, vocab, model = d / "log.csv", d / "f.csv", d / "vocab.json", d / "model.json"
    assert main(["simulate", "--out", str(log), "--duration", "20"]) == 0
    assert main(["extract", "--in", str(log), "--out", str(feats),
                 "--save-vocab", str(vocab)]) == 0
    assert main(["train", "--features", str(feats), "--out", str(model)]) == 0
    return log, feats, vocab, model


@pytest.mark.parametrize("content, message", [
    (b'{"format": "canoc-model",',
     "Expecting property name enclosed in double quotes: line 1 column 26 (char 25)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")])
@pytest.mark.parametrize("command", ["detect", "eval", "extract", "train"])
def test_json_that_does_not_decode_names_its_file(tmp_path, capsys, pipeline_files, command,
                                                  content, message):
    log, feats, _, _ = pipeline_files
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv, what = {
        "detect": (["detect", "--model", bad, "--in", log], "model file"),
        "eval": (["eval", "--model", bad, "--features", feats], "model file"),
        "extract": (["extract", "--in", log, "--vocab", bad, "--out", tmp_path / "o"],
                    "vocabulary file"),
        "train": (["train", "--features", feats, "--extraction-config", bad,
                   "--out", tmp_path / "o"], "vocabulary file"),
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err == f"error: {what} {bad}: {message}\n"


@pytest.mark.parametrize("command", ["detect", "extract", "inject"])
def test_log_byte_outside_printable_ascii_names_its_file_and_row(tmp_path, capsys,
                                                              pipeline_files, command):
    log, _, _, model = pipeline_files
    lines = log.read_bytes().splitlines(keepends=True)
    lines[44] = lines[44][:5] + b"\xff" + lines[44][5:]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines))
    argv = {"detect": ["detect", "--model", model, "--in", bad],
            "extract": ["extract", "--in", bad, "--out", tmp_path / "o"],
            "inject": ["inject", "--in", bad, "--out", tmp_path / "o", "--kind", "zero_id",
                       "--rate", 10]}[command]
    with mock.patch.object(canlog, "READ_BYTES", 512):
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: log file {bad}: byte outside printable ASCII (row 44)\n"


# --- scores that depend only on their own row --------------------------------------

@pytest.fixture(scope="module")
def every_model():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((50, 5)) * [1.0, 2.0, 0.5, 3.0, 1.0] + 1.0
    scaler = fit_scaler(X)
    Xs = apply_scaler(scaler, X)
    return {f"{family}-{kind}": fit_model(family, Xs, kernel=KernelSpec(kind), scaler=scaler,
                                          **({"d": 3, "iterations": 3}
                                             if family == "ssvdd" else {}))
            for family in MODEL_FAMILIES for kind in ("linear", "rbf")}


def laid_out(X, layout):
    """X as a C copy, a Fortran copy, a view one float into a buffer, or a strided view."""
    if layout == "fortran":
        return np.asfortranarray(X)
    if layout == "offset":
        buf = np.empty(X.size + 1)
        view = buf[1:].reshape(X.shape)
        view[:] = X
        return view
    if layout == "strided":
        buf = np.zeros((2 * X.shape[0], 3 * X.shape[1]))
        buf[::2, 1::3] = X
        return buf[::2, 1::3]
    return X.copy()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.lists(st.integers(1, 39), max_size=5),
       st.lists(st.sampled_from(("c", "fortran", "offset", "strided")), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_scores_of_any_split_of_the_rows_are_the_scores_of_all_rows(every_model, seed, n,
                                                                    cuts, layouts):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 5)) * rng.choice([0.1, 1.0, 10.0], size=5) + 1.0
    edges = [0, *sorted({c for c in cuts if c < n}), n]
    for name, model in every_model.items():
        whole = score_samples(model, X).tobytes()
        parts = [score_samples(model, laid_out(X[a:b], layouts[k % len(layouts)]))
                 for k, (a, b) in enumerate(zip(edges, edges[1:]))]
        assert np.concatenate(parts).tobytes() == whole, name


# --- flat memory, and bytes that no BLAS thread count moves ------------------------

# a parent process that imports no numpy, so that the peak it passes on to the
# child is small; it prints the child's exit code and peak RSS in KiB
LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_env(**extra):
    """The environment of a canoc child process: this checkout's canoc, and
    every warning an error, as in the in-process tests."""
    src = str(Path(canoc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                PYTHONWARNINGS="error", **extra)


@pytest.fixture(scope="module")
def long_logs(tmp_path_factory):
    """Candump logs of 300 s and 1200 s of the default bus, and a model."""
    d = tmp_path_factory.mktemp("long")
    log = generate_normal(default_bus(1200.0, seed=1))
    paths = {}
    for seconds in (300, 1200):
        part = log[:int(np.searchsorted(log.times, log.times[0] + seconds))]
        paths[seconds] = d / f"{seconds}.log"
        paths[seconds].write_text("".join(
            f"({t:.6f}) can0 {i:03X}#\n" for t, i in zip(part.times.tolist(),
                                                          part.ids.tolist())))
    spec = FeatureSpec(IdVocabulary(tuple(np.unique(log.ids).tolist())))
    model_file(d / "model.json", paths[300], "svdd", spec)
    return paths, d / "model.json"


def test_detect_memory_does_not_grow_with_the_log(long_logs):
    paths, model = long_logs
    peaks = {}
    for seconds, path in paths.items():
        done = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m",
                               "canoc.cli", "detect", "--model", str(model), "--in", str(path)],
                              env=child_env(), capture_output=True, text=True, check=True)
        code, peak = map(int, done.stdout.split())
        assert code in (0, 4)
        peaks[seconds] = peak
    assert peaks[1200] <= 1.1 * peaks[300], peaks


def peak_kib(*argv):
    """The exit code and peak RSS of ``canoc <argv>``, run from LAUNCHER."""
    done = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "canoc.cli",
                           *map(str, argv)], env=child_env(), capture_output=True, text=True,
                          check=True)
    return tuple(map(int, done.stdout.split()))


def test_simulate_inject_and_extract_memory_does_not_grow_with_the_log(tmp_path):
    # the same attacks on 300 s and 1200 s of traffic: only simulate's time
    # columns, 8 bytes a frame, and the feature rows grow with the log
    peaks = {}
    for seconds in (300, 1200):
        log, attacked = tmp_path / f"{seconds}.csv", tmp_path / f"{seconds}-attacked.csv"
        peaks["simulate", seconds] = peak_kib("simulate", "--out", log, "--duration", seconds)
        peaks["inject", seconds] = peak_kib(
            "inject", "--in", log, "--labels", f"{log}.labels.csv", "--out", attacked,
            "--kind", "zero_id", "--rate", 500, "--start", 20, "--end", 40)
        peaks["extract", seconds] = peak_kib("extract", "--in", attacked, "--labels",
                                             f"{attacked}.labels.csv", "--out",
                                             tmp_path / f"{seconds}.features.csv")
    assert all(code == 0 for code, _ in peaks.values()), peaks
    for command in ("simulate", "inject", "extract"):
        assert peaks[command, 1200][1] <= 1.1 * peaks[command, 300][1], peaks


def test_detect_output_does_not_depend_on_the_blas_thread_count(long_logs):
    paths, model = long_logs
    outputs = {subprocess.run([sys.executable, "-m", "canoc.cli", "detect", "--model",
                               str(model), "--in", str(paths[300])],
                              env=child_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True).stdout
               for threads in ("1", "2")}
    assert len(outputs) == 1 and outputs.pop().count(b"\n") == 300
