import io
from collections import Counter

import numpy as np
import pytest

from canoc import (AttackScenario, BusSpec, EcuSpec, LabeledLog,
                   build_vocabulary, extract_features, generate_normal,
                   inject, inject_random_id, inject_replay, inject_zero_id,
                   label_windows, read_labels, segment_windows, write_labels)
from canoc.simulate import default_bus


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


# --- flood injection ----------------------------------------------------------

def base_log(duration=10.0, seed=3):
    return generate_normal(default_bus(duration, seed=seed))


def test_random_id_flood_count_and_window():
    log = base_log()
    scenario = AttackScenario(kind="random_id", rate=1000.0, window=(2.0, 3.0), seed=11)
    out = inject_random_id(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "random_id"]
    assert 900 <= len(injected) <= 1100
    assert all(2.0 <= f.timestamp < 3.0 for f in injected)
    assert all(0 <= f.can_id <= 0x7FF for f in injected)
    # determinism
    again = inject_random_id(log, scenario)
    assert again.log.frames == out.log.frames


def test_flood_preserves_base_frames():
    log = base_log(duration=5.0)
    out = inject_zero_id(log, AttackScenario(kind="zero_id", rate=100.0,
                                             window=(1.0, 2.0), seed=4))
    survivors = [f for f, lab in zip(out.log.frames, out.frame_labels)
                 if lab == "normal"]
    assert Counter(survivors) == Counter(log.frames)
    assert len(out.log.frames) > len(log.frames)


def test_flood_on_empty_log_contains_only_injection():
    from canoc import CanLog
    scenario = AttackScenario(kind="random_id", rate=50.0, window=(0.0, 2.0), seed=1)
    out = inject_random_id(CanLog(()), scenario)
    assert len(out.log.frames) > 0
    assert all(lab == "random_id" for lab in out.frame_labels)


def test_zero_id_flood_shape():
    log = base_log(duration=5.0)
    scenario = AttackScenario(kind="zero_id", rate=500.0, window=(1.0, 3.0), seed=7)
    out = inject_zero_id(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "zero_id"]
    assert all(f.can_id == 0 and f.payload == b"" for f in injected)
    assert 850 <= len(injected) <= 1150  # ~1000 expected
    repeat = inject_zero_id(log, scenario)
    assert len(repeat.log.frames) == len(out.log.frames)


def test_zero_id_payload_override():
    log = base_log(duration=3.0)
    scenario = AttackScenario(kind="zero_id", rate=50.0, window=(0.5, 1.5),
                              seed=2, payload_length=4)
    out = inject_zero_id(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "zero_id"]
    assert all(len(f.payload) == 4 for f in injected)


def test_window_outside_span_rejected():
    log = base_log(duration=5.0)
    scenario = AttackScenario(kind="zero_id", rate=10.0, window=(20.0, 21.0), seed=0)
    with pytest.raises(ValueError, match="outside the"):
        inject_zero_id(log, scenario)


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
    with pytest.raises(ValueError, match="kind is"):
        inject_replay(base_log(2.0), AttackScenario(kind="zero_id", rate=1.0,
                                                    window=(0.5, 1.0)))


# --- replay -------------------------------------------------------------------

def test_replay_single_frame_three_copies():
    from conftest import make_log
    log = make_log([(0.0, 0x1), (1.0, 0x2), (2.0, 0x1), (9.0, 0x3)])
    scenario = AttackScenario(kind="replay", window=(5.0, 8.0),
                              replay_segment=(0.9, 1.1), repeat=3)
    out = inject_replay(log, scenario)
    injected = [f for f, lab in zip(out.log.frames, out.frame_labels)
                if lab == "replay"]
    assert len(injected) == 3
    assert all(f.can_id == 0x2 for f in injected)
    assert [f.timestamp for f in injected] == pytest.approx([5.1, 5.3, 5.5])


def test_replay_preserves_intra_segment_gaps():
    log = base_log(duration=10.0)
    scenario = AttackScenario(kind="replay", window=(6.0, 9.0),
                              replay_segment=(1.0, 2.0), repeat=2, seed=0)
    out = inject_replay(log, scenario)
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
        inject_replay(log, scenario)


def test_replay_doubles_per_id_frequency():
    # end-to-end feature oracle: replaying one second on top of itself should
    # roughly double every id's frequency in the attacked window
    log = base_log(duration=10.0, seed=6)
    scenario = AttackScenario(kind="replay", window=(3.0, 4.0),
                              replay_segment=(3.0, 4.0), repeat=1)
    out = inject_replay(log, scenario)
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


def test_label_windows_majority_and_tie():
    from conftest import make_log
    log = make_log([(0.1, 1), (0.2, 1), (0.3, 1), (0.4, 1), (0.5, 1)])
    windows = segment_windows(log, 1.0)
    majority = LabeledLog(log, ("replay", "zero_id", "zero_id", "normal", "normal"))
    assert label_windows(majority, windows) == ["zero_id"]
    tie = LabeledLog(log, ("replay", "zero_id", "normal", "normal", "normal"))
    assert label_windows(tie, windows) == ["replay"]  # earliest injected wins


def test_label_windows_single_injected_frame_suffices():
    log = base_log(duration=4.0)
    scenario = AttackScenario(kind="random_id", rate=1.0, window=(1.2, 1.3), seed=9)
    out = inject_random_id(log, scenario)
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
