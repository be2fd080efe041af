import contextlib
import io
import os
import re
import tempfile
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canoc import (AttackScenario, BusSpec, CanFrame, CanLog, EcuSpec, LabeledLog,
                   build_vocabulary, extract_features, generate_normal,
                   inject, label_windows, read_labels, segment_windows, write_labels)
from canoc.canlog import CHUNK_LINES, COLUMNS, join_logs
from canoc import simulate
from canoc.cli import main
from canoc.simulate import default_bus
from conftest import tuple_join_labeled, tuple_label_windows


def test_jitterless_single_id_exact_schedule():
    spec = BusSpec((EcuSpec(0x10, 0.1, jitter=0.0),), duration=1.0, seed=0)
    log = generate_normal(spec)
    assert [round(f.timestamp, 9) for f in log.frames] == \
           [round(0.1 * k, 9) for k in range(10)]
    assert all(f.can_id == 0x10 for f in log.frames)


def test_generator_is_deterministic():
    spec = default_bus(10.0, seed=5)
    a, b = generate_normal(spec), generate_normal(spec)
    assert a.frames == b.frames


def test_default_bus_has_ten_ids():
    log = generate_normal(default_bus(5.0, seed=1))
    assert len({f.can_id for f in log.frames}) == 10


def test_mean_gaps_track_nominal_periods():
    spec = default_bus(120.0, seed=2)
    log = generate_normal(spec)
    times = np.array([f.timestamp for f in log.frames])
    ids = np.array([f.can_id for f in log.frames])
    for ecu in spec.ids:
        gaps = np.diff(times[ids == ecu.can_id])
        assert abs(gaps.mean() - ecu.period) / ecu.period < 0.01


def test_bus_spec_validation():
    for duration in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="duration"):
            BusSpec((EcuSpec(1, 0.1),), duration=duration)
    with pytest.raises(ValueError, match="unique"):
        BusSpec((EcuSpec(1, 0.1), EcuSpec(1, 0.2)), duration=1.0)
    for period in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="period"):
            EcuSpec(1, period)
    with pytest.raises(ValueError, match="jitter"):
        EcuSpec(1, 0.1, jitter=1.0)


@pytest.mark.parametrize("can_id", [-1, 0x800, 0x1FFFFFFF])
def test_a_bus_id_outside_standard_addressing_is_refused_by_name(can_id):
    name = "-0x1" if can_id < 0 else f"0x{can_id:X}"
    with pytest.raises(ValueError, match=f"^bus id {name} is outside the standard range"):
        EcuSpec(can_id, 0.1)


@pytest.mark.parametrize("duration", [0.5, 20.0, 600.0])
def test_generate_normal_is_the_joined_slices_in_memory_near_its_output(duration):
    spec = default_bus(duration, seed=3)
    expected = join_logs(list(simulate.iter_normal(spec)))
    tracemalloc.start()
    try:
        log = generate_normal(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log == expected and log.labels is None
    assert all(getattr(log, name).dtype == getattr(expected, name).dtype for name in COLUMNS)
    if duration == 600.0:  # large against one slice's columns
        assert peak < 1.5 * sum(getattr(log, name).nbytes for name in COLUMNS)


# --- flood injection ----------------------------------------------------------

def base_log(duration=10.0, seed=3):
    return generate_normal(default_bus(duration, seed=seed))


def test_random_id_flood_count_and_window():
    log = base_log()
    scenario = AttackScenario(kind="random_id", rate=1000.0, window=(2.0, 3.0), seed=11)
    out = inject(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "random_id"]
    assert 900 <= len(injected) <= 1100
    assert all(2.0 <= f.timestamp < 3.0 for f in injected)
    assert all(0 <= f.can_id <= 0x7FF for f in injected)
    # determinism
    again = inject(log, scenario)
    assert again.log.frames == out.log.frames


def test_flood_preserves_base_frames():
    log = base_log(duration=5.0)
    out = inject(log, AttackScenario(kind="zero_id", rate=100.0,
                                     window=(1.0, 2.0), seed=4))
    survivors = [f for f, lab in zip(out.log.frames, out.frame_labels)
                 if lab == "normal"]
    assert Counter(survivors) == Counter(log.frames)
    assert len(out.log.frames) > len(log.frames)


def test_flood_on_empty_log_contains_only_injection():
    from canoc import CanLog
    scenario = AttackScenario(kind="random_id", rate=50.0, window=(0.0, 2.0), seed=1)
    out = inject(CanLog.from_frames(()), scenario)
    assert len(out.log.frames) > 0
    assert all(lab == "random_id" for lab in out.frame_labels)


def test_zero_id_flood_shape():
    log = base_log(duration=5.0)
    scenario = AttackScenario(kind="zero_id", rate=500.0, window=(1.0, 3.0), seed=7)
    out = inject(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "zero_id"]
    assert all(f.can_id == 0 and f.payload == b"" for f in injected)
    assert 850 <= len(injected) <= 1150  # ~1000 expected
    repeat = inject(log, scenario)
    assert len(repeat.log.frames) == len(out.log.frames)


def test_zero_id_payload_override():
    log = base_log(duration=3.0)
    scenario = AttackScenario(kind="zero_id", rate=50.0, window=(0.5, 1.5),
                              seed=2, payload_length=4)
    out = inject(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "zero_id"]
    assert all(len(f.payload) == 4 for f in injected)


def test_window_outside_span_rejected():
    log = base_log(duration=5.0)
    scenario = AttackScenario(kind="zero_id", rate=10.0, window=(20.0, 21.0), seed=0)
    with pytest.raises(ValueError, match="outside the"):
        inject(log, scenario)


@pytest.mark.parametrize("scenario", [
    AttackScenario(kind="zero_id", rate=100.0, window=(-3.0, 2.0), seed=0),
    AttackScenario(kind="random_id", rate=100.0, window=(-0.5, 2.0), seed=0),
    AttackScenario(kind="replay", window=(-2.0, 1.0), replay_segment=(1.0, 4.0))],
    ids=["zero_id", "random_id", "replay"])
def test_an_injected_frame_before_0_s_is_refused_naming_the_window(scenario):
    start, end = scenario.window
    with pytest.raises(ValueError, match=re.escape(f"attack window [{start}, {end}) would "
                                                   "put a frame at -")):
        inject(base_log(duration=5.0), scenario)


def test_a_replay_from_a_window_before_0_s_that_lands_at_or_after_0_s_is_injected():
    log = base_log(duration=5.0)
    lo, hi = np.searchsorted(log.times, [2.0, 3.0]).tolist()
    start = 2.0 - float(log.times[lo])  # the first copied frame lands at 0 s exactly
    out = inject(log, AttackScenario(kind="replay", window=(start, start + 1.0),
                                     replay_segment=(2.0, 3.0)))
    assert start < 0 and len(out.log) == len(log) + hi - lo
    replayed = out.log.times[out.log.labels == 1]
    assert replayed[0] == 0.0 and np.array_equal(replayed, log.times[lo:hi] + (start - 2.0))


def test_scenario_validation():
    with pytest.raises(ValueError, match="kind"):
        AttackScenario(kind="fuzz", window=(0, 1))
    for rate in (None, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="rate"):
            AttackScenario(kind="zero_id", rate=rate, window=(0, 1))
    for window in ((1.0, 1.0), (0.0, float("inf")), (float("-inf"), 1.0)):
        with pytest.raises(ValueError, match="window"):
            AttackScenario(kind="zero_id", rate=10.0, window=window)
    with pytest.raises(ValueError, match="segment"):
        AttackScenario(kind="replay", window=(0, 1))
    for segment in ((1.0, float("inf")), (float("nan"), 2.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"replay segment must be finite with src_end > src_start, got {segment!r}")):
            AttackScenario(kind="replay", window=(0, 1), replay_segment=segment)


@pytest.mark.parametrize("kind, extra", [
    ("replay", dict(rate=10.0)), ("replay", dict(payload_length=3)),
    ("zero_id", dict(replay_segment=(1.0, 2.0))), ("random_id", dict(repeat=4))])
def test_scenario_rejects_a_field_its_kind_does_not_take(kind, extra):
    takes = (dict(replay_segment=(1.0, 2.0)) if kind == "replay" else dict(rate=10.0))
    with pytest.raises(ValueError, match=f"{kind} takes no"):
        AttackScenario(kind=kind, window=(0, 1), **takes, **extra)


# --- replay -------------------------------------------------------------------

def test_replay_single_frame_three_copies():
    from conftest import make_log
    log = make_log([(0.0, 0x1), (1.0, 0x2), (2.0, 0x1), (9.0, 0x3)])
    scenario = AttackScenario(kind="replay", window=(5.0, 8.0),
                              replay_segment=(0.9, 1.1), repeat=3)
    out = inject(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "replay"]
    assert len(injected) == 3
    assert all(f.can_id == 0x2 for f in injected)
    assert [f.timestamp for f in injected] == pytest.approx([5.1, 5.3, 5.5])


def test_replay_preserves_intra_segment_gaps():
    log = base_log(duration=10.0)
    scenario = AttackScenario(kind="replay", window=(6.0, 9.0),
                              replay_segment=(1.0, 2.0), repeat=2, seed=0)
    out = inject(log, scenario)
    source = [f.timestamp for f in log.frames if 1.0 <= f.timestamp < 2.0]
    injected = [f.timestamp for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "replay"]
    first_copy = injected[:len(source)]
    src_gaps = np.diff(source)
    new_gaps = np.diff(first_copy)
    assert np.abs(src_gaps - new_gaps).max() <= 1e-9


def test_replay_empty_segment_errors():
    log = base_log(duration=5.0)
    scenario = AttackScenario(kind="replay", window=(3.0, 4.0),
                              replay_segment=(100.0, 101.0), repeat=1)
    with pytest.raises(ValueError, match="no frames"):
        inject(log, scenario)


def test_replay_doubles_per_id_frequency():
    # end-to-end feature oracle: replaying one second on top of itself should
    # roughly double every id's frequency in the attacked window
    log = base_log(duration=10.0, seed=6)
    scenario = AttackScenario(kind="replay", window=(3.0, 4.0),
                              replay_segment=(3.0, 4.0), repeat=1)
    out = inject(log, scenario)
    vocab = build_vocabulary(log, include_other_bucket=False)
    before = extract_features(segment_windows(log, 1.0)[3], vocab).values
    after = extract_features(segment_windows(out.log, 1.0)[3], vocab).values
    ratios = after[0::3] / before[0::3]
    assert np.all(ratios > 1.7) and np.all(ratios < 2.3)


# --- window labeling -----------------------------------------------------------

def test_label_windows_rules():
    from conftest import make_log
    log = make_log([(0.5, 0x1), (1.5, 0x1), (2.5, 0x1), (3.5, 0x1)])
    labels = ("normal", "zero_id", "normal", "normal")
    labeled = LabeledLog(log, labels)
    windows = segment_windows(log, 1.0)
    assert label_windows(labeled, windows) == ["normal", "zero_id", "normal", "normal"]
    other = make_log([(0.5, 0x1), (1.5, 0x2), (2.5, 0x1), (3.5, 0x1)])
    with pytest.raises(ValueError, match="window 1 "):
        label_windows(labeled, segment_windows(other, 1.0))


def test_label_windows_majority_and_tie():
    from conftest import make_log
    log = make_log([(0.1, 1), (0.2, 1), (0.3, 1), (0.4, 1), (0.5, 1)])
    windows = segment_windows(log, 1.0)
    majority = LabeledLog(log, ("replay", "zero_id", "zero_id", "normal", "normal"))
    assert label_windows(majority, windows) == ["zero_id"]
    tie = LabeledLog(log, ("replay", "zero_id", "normal", "normal", "normal"))
    assert label_windows(tie, windows) == ["replay"]  # earliest injected wins


def reference_label_windows(labeled, windows):
    """The bisect-over-injected-indices labelling that label_windows replaced."""
    import bisect
    log, labels = labeled.log, labeled.frame_labels
    injected = [i for i, label in enumerate(labels) if label != "normal"]
    starts = np.searchsorted(log.times, [w.start for w in windows], side="left")
    out = []
    for w, lo in zip(windows, starts.tolist()):
        hi = lo + len(w.frames)
        kinds = [labels[i] for i in
                 injected[bisect.bisect_left(injected, lo):bisect.bisect_left(injected, hi)]]
        out.append(max(kinds, key=Counter(kinds).__getitem__) if kinds else "normal")
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_windows_matches_the_reference_on_stacked_attacks(seed):
    labeled = inject(base_log(duration=30.0, seed=seed),
                     AttackScenario(kind="random_id", rate=300.0, window=(3.0, 9.0), seed=seed))
    labeled = inject(labeled, AttackScenario(kind="zero_id", rate=400.0, window=(7.0, 14.0),
                                             seed=seed))
    for k in range(4):
        labeled = inject(labeled, AttackScenario(
            kind="replay", window=(5.0 + 6 * k, 6.5 + 6 * k),
            replay_segment=(1.0 + k, 2.0 + k), repeat=2, seed=seed + k))
    for length, stride in ((1.0, 1.0), (2.0, 0.5), (0.3, 0.3)):
        windows = segment_windows(labeled.log, length, stride)
        labels = label_windows(labeled, windows)
        assert labels == reference_label_windows(labeled, windows)
        assert len(set(labels)) == 4


def reference_inject(log, labels, scenario):
    """inject on a plain log with a tuple of labels: the frames that inject
    adds, joined by the tuple join."""
    added = simulate._attack(scenario, log.span if len(log) else None,
                             simulate._segment(log, scenario))
    added = CanLog(*(getattr(added, name) for name in COLUMNS))
    return tuple_join_labeled([(log, labels), (added, (scenario.kind,) * len(added))])


TICK = 1 / 16  # a binary fraction, so that replayed copies tie with base frames exactly

FLOOD = st.tuples(st.sampled_from(["random_id", "zero_id"]), st.integers(0, 150),
                  st.integers(1, 40), st.integers(0, 9))
# (source start, source length, start, repeat), in ticks
REPLAY = st.tuples(st.just("replay"), st.integers(0, 150), st.integers(1, 40),
                   st.integers(0, 150), st.integers(1, 3))


def scenario_of(step):
    if step[0] == "replay":
        _, src, length, start, repeat = step
        return AttackScenario(kind="replay", window=(start * TICK, (start + 1) * TICK),
                              replay_segment=(src * TICK, (src + length) * TICK),
                              repeat=repeat)
    kind, start, length, seed = step
    return AttackScenario(kind=kind, rate=16.0, window=(start * TICK, (start + length) * TICK),
                          seed=seed)


@given(st.lists(st.tuples(st.integers(0, 160), st.sampled_from([0x100, 0x200, 0x7FF]),
                          st.sampled_from(["normal", "normal", "replay", "spoof"])),
                min_size=1, max_size=60),
       st.lists(FLOOD | REPLAY, min_size=1, max_size=4),
       st.sampled_from([(1.0, None), (0.75, 0.25), (0.5, 1.5)]))
@settings(max_examples=150, deadline=None)
def test_chained_injects_label_like_the_tuple_reference(rows, steps, window):
    # frames out of time order, tied on ticks: the log's stable sort orders them
    base = CanLog.from_frames(CanFrame(tick * TICK, can_id) for tick, can_id, _ in rows)
    order = np.argsort([tick for tick, _, _ in rows], kind="stable").tolist()
    labeled = LabeledLog(base, [rows[k][2] for k in order])
    reference = base, labeled.frame_labels
    for step in steps:
        try:
            reference = reference_inject(*reference, scenario_of(step))
        except ValueError:  # a window outside the log, or a replay source without frames
            continue
        labeled = inject(labeled, scenario_of(step))
        assert labeled.log == reference[0] and labeled.frame_labels == reference[1]
    # windows cut from the labeled log carry its labels; those of the plain log are
    # looked up by position
    for log in (labeled.log, reference[0]):
        windows = segment_windows(log, *window)
        assert label_windows(labeled, windows) == tuple_label_windows(*reference, windows)


def test_label_windows_single_injected_frame_suffices():
    log = base_log(duration=4.0)
    scenario = AttackScenario(kind="random_id", rate=1.0, window=(1.2, 1.3), seed=9)
    out = inject(log, scenario)
    windows = segment_windows(out.log, 1.0)
    labels = label_windows(out, windows)
    injected_count = sum(1 for lab in out.frame_labels if lab != "normal")
    if injected_count:
        assert labels[1] == "random_id"
    assert labels[0] == "normal"


def test_inject_dispatch():
    log = base_log(duration=4.0)
    out = inject(log, AttackScenario(kind="zero_id", rate=10.0, window=(1, 2), seed=1))
    assert any(lab == "zero_id" for lab in out.frame_labels)


def test_label_sidecar_roundtrip():
    sink = io.StringIO()
    write_labels(["normal", "replay", "normal"], sink)
    assert read_labels(io.StringIO(sink.getvalue())) == ["normal", "replay", "normal"]
    with pytest.raises(ValueError, match="header"):
        read_labels(io.StringIO("nope\n"))


@pytest.mark.parametrize("label", ["", "a,b", 'a "b"', "x\ty", "\r", "\x85"])
def test_a_label_the_sidecar_refuses_is_refused_when_the_log_is_built(label, tmp_path):
    log = base_log(duration=1.0)
    labels = ["normal", "replay"] * (len(log) // 2) + ["normal"] * (len(log) % 2)
    labels[3] = labels[9] = label
    # the reader's message for the same label, naming the frame for the line
    message = labels_by_line(f"label\n{label}\n").removeprefix("line 2: ")
    with pytest.raises(ValueError) as err:
        LabeledLog(log, labels)
    assert str(err.value) == f"frame 3: {message}"
    # a label the log takes is written and read back as it was
    labels[3] = labels[9] = "odd label"
    paths = str(tmp_path / "l.csv"), str(tmp_path / "l.labels.csv")
    simulate.save_labeled([LabeledLog(log, labels).log], *paths)
    assert LabeledLog(join_logs(list(simulate.iter_labeled(*paths)))).frame_labels == tuple(labels)


@pytest.mark.parametrize("text, line", [("label\nnormal\n\nreplay\n", 3), ("label\n\n", 2),
                                        ("label\nnormal\n\n", 3), ("label\nnormal\n\n,\n", 3)])
def test_a_blank_line_in_a_label_sidecar_is_an_error(text, line):
    # a blank line would otherwise drop one label, and shift those after it
    with pytest.raises(ValueError, match=f"^line {line}: blank label$"):
        read_labels(io.StringIO(text))


def labels_by_line(text):
    """The sidecar reader's result on ``text``, taken line by line: the
    labels, or the message of the first error."""
    lines = [line.rstrip("\n") for line in io.StringIO(text)]
    if not lines or lines[0] != "label":
        return "first line is not the header 'label'"
    for number, label in enumerate(lines[1:], start=2):
        if not label:
            return f"line {number}: blank label"
        if re.search(r'[,"\x00-\x1f\x7f-\x9f]', label):
            return f"line {number}: label {label!r} contains ',', '\"' or a control character"
    return lines[1:]


@given(st.lists(st.sampled_from(["label", "normal", "replay", "", "a,b", "x\ty", "\r"]),
                max_size=12).map("\n".join) | st.text(alphabet="label\n,\r", max_size=30),
       st.booleans(), st.sampled_from([1, 2, 7, simulate.LABEL_READ]))
@settings(max_examples=300, deadline=None)
def test_labels_read_in_blocks_of_any_size_are_the_labels_of_the_lines(text, header,
                                                                     label_read):
    text = "label\n" + text if header else text
    with mock.patch.object(simulate, "LABEL_READ", label_read):
        try:
            got = read_labels(io.StringIO(text))
        except ValueError as err:
            got = str(err)
    assert got == labels_by_line(text)


@pytest.mark.parametrize("count", [0, 1, CHUNK_LINES, 2 * CHUNK_LINES + 1])
def test_label_writer_writes_one_line_per_label_across_chunks(count):
    labels = [("normal", "replay", "zero_id")[k % 3] for k in range(count)]
    sink = io.StringIO()
    write_labels(iter(labels), sink)
    assert sink.getvalue() == "label\n" + "".join(label + "\n" for label in labels)


@pytest.fixture(scope="module")
def short_log(tmp_path_factory):
    from canoc.canlog import save_log
    log = tmp_path_factory.mktemp("labels") / "log.csv"
    save_log(base_log(duration=0.05), str(log))
    return str(log)


@given(st.binary(max_size=60) | st.text(max_size=60).map(lambda t: ("label\n" + t).encode()))
@example(b"label\n" + b"[" * 100_000 + b"\n")
@example(b"label\n" + b"normal\n" * 27)
@settings(max_examples=200, deadline=None)
def test_any_label_sidecar_parses_or_is_an_input_error(short_log, data):
    try:
        read_labels(io.StringIO(data.decode("utf-8")))
        parsed = True
    except ValueError:
        parsed = False
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "labels.csv")
        with open(path, "wb") as f:
            f.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["extract", "--in", short_log, "--labels", path,
                         "--out", os.path.join(d, "f.csv")])
    assert code in (0, 2) if parsed else code == 2
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
