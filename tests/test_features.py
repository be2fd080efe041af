import io
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canoc import features
from canoc import (CanFrame, IdVocabulary, Window, apply_scaler,
                   build_vocabulary, extract_features, fit_scaler,
                   segment_windows)
from canoc.canlog import CAN_EFF_MAX
from canoc.features import (SPEC_KEYS, STDEV_MODES, FeatureSpec, extract_matrix,
                            read_feature_csv, spec_from_dict, spec_to_dict,
                            vocabulary_from_feature_names, write_feature_csv)
from canoc.simulate import AttackScenario, default_bus, generate_normal, inject

from conftest import make_log


# --- independent oracle: sorted arrival lists + statistics module ----------

def oracle_features(window, vocab, stdev_mode="gaps"):
    """Brute-force per-ID gap statistics, kept numpy-free on purpose."""
    def stats(times):
        times = sorted(times)
        j = len(times)
        if j <= 1:
            return [0.0, window.length, 0.0]
        gaps = [b - a for a, b in zip(times, times[1:])]
        dt = max((times[-1] - times[0]) / (j - 1), 1e-9)
        pool = gaps if stdev_mode == "gaps" else times
        return [1.0 / dt, dt, statistics.pstdev(pool)]

    values = []
    for cid in vocab.ids:
        values.extend(stats([f.timestamp for f in window.frames if f.can_id == cid]))
    if vocab.include_other_bucket:
        values.extend(stats([f.timestamp for f in window.frames
                             if f.can_id not in vocab.ids]))
    return values


def assert_matches_oracle(window, vocab, stdev_mode="gaps"):
    got = extract_features(window, vocab, stdev_mode).values
    want = oracle_features(window, vocab, stdev_mode)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (g, w)


# --- vocabulary -------------------------------------------------------------

def test_build_vocabulary_sorts_and_dedupes():
    log = make_log([(0.0, 0x200), (0.1, 0x100), (0.2, 0x200)])
    vocab = build_vocabulary(log)
    assert vocab.ids == (0x100, 0x200)


def test_single_id_dimension_without_other_bucket():
    log = make_log([(0.0, 0x42)])
    vocab = build_vocabulary(log, include_other_bucket=False)
    assert vocab.ids == (0x42,)
    assert vocab.dimension == 3


def test_vocabulary_rejects_bad_ids():
    with pytest.raises(ValueError):
        IdVocabulary((0x200, 0x100))
    with pytest.raises(ValueError):
        IdVocabulary(())


def test_vocabulary_takes_only_can_ids():
    for ids in [(-1, 0x100), (0x100, CAN_EFF_MAX + 1), (2 ** 81,)]:
        with pytest.raises(ValueError, match="CAN ids"):
            IdVocabulary(ids)
    assert IdVocabulary((0, CAN_EFF_MAX)).ids == (0, CAN_EFF_MAX)


@pytest.mark.parametrize("tag", ["100", "0X100", "0x1_00", "0x\u0661", "-1", "0x", " 0x100"])
def test_feature_names_take_only_hex_id_tags(tag):
    with pytest.raises(ValueError, match="0x-hex CAN id"):
        vocabulary_from_feature_names([f"f_{tag}", f"dt_{tag}", f"sd_{tag}"])


@pytest.mark.parametrize("triple", [
    ["f", "dt_0x10", "sd_0x10"], ["f_0x10", "dt_0x10", "sd"],
    ["f_0x10", "dt_0x10", "sd_0x11"], ["f_0x10", "sd_0x10", "dt_0x10"]])
def test_feature_names_reject_a_malformed_triple(triple):
    with pytest.raises(ValueError, match="malformed feature triple"):
        vocabulary_from_feature_names(triple)


def test_empty_log_vocabulary_errors():
    from canoc import CanLog
    with pytest.raises(ValueError, match="empty"):
        build_vocabulary(CanLog.from_frames(()))


def test_feature_names_roundtrip():
    vocab = IdVocabulary((0x100, 0x1F4), include_other_bucket=True)
    names = vocab.feature_names()
    assert names[:3] == ["f_0x100", "dt_0x100", "sd_0x100"]
    assert names[-3:] == ["f_other", "dt_other", "sd_other"]
    assert vocabulary_from_feature_names(names) == vocab


def test_feature_spec_dict_roundtrip_and_invariants():
    spec = FeatureSpec(IdVocabulary((0x7, 0x1F4), include_other_bucket=False),
                       window=2.5, stride=0.5, stdev_mode="timestamps")
    doc = spec_to_dict(spec)
    assert doc == {"ids": ["0x7", "0x1F4"], "include_other_bucket": False,
                   "window": 2.5, "stride": 0.5, "stdev_mode": "timestamps"}
    assert spec_from_dict(doc, "spec") == spec
    vocab = spec.vocab
    for bad, field in [(dict(window=0.0), "window"), (dict(window=float("inf")), "window"),
                       (dict(stride=float("nan")), "stride"),
                       (dict(stdev_mode="range"), "stdev_mode")]:
        with pytest.raises(ValueError, match=field):
            FeatureSpec(vocab, **bad)
    with pytest.raises(ValueError, match="spec: window"):
        spec_from_dict({**doc, "window": 10 ** 400}, "spec")


# --- window segmentation ----------------------------------------------------

def test_segment_span_3_5_gives_4_windows_last_partial():
    log = make_log([(t, 0x1) for t in (0.0, 0.9, 1.4, 2.7, 3.4)])
    windows = segment_windows(log, 1.0)
    assert len(windows) == 4
    assert [w.partial for w in windows] == [False, False, False, True]
    assert [len(w.frames) for w in windows] == [2, 1, 1, 1]


def test_segment_empty_log():
    from canoc import CanLog
    assert segment_windows(CanLog.from_frames(()), 1.0) == []


def test_segment_rejects_bad_length():
    with pytest.raises(ValueError):
        segment_windows(make_log([(0.0, 1)]), 0.0)
    with pytest.raises(ValueError):
        segment_windows(make_log([(0.0, 1)]), 1.0, stride=-1.0)


def test_segment_boundary_frame_goes_to_next_window():
    log = make_log([(0.0, 1), (1.0, 1), (2.0, 1)])
    windows = segment_windows(log, 1.0)
    assert [len(w.frames) for w in windows] == [1, 1, 1]


def test_segment_sliding_stride():
    log = make_log([(t / 10, 1) for t in range(20)])
    windows = segment_windows(log, 1.0, stride=0.5)
    assert len(windows) == 4
    assert windows[1].start == pytest.approx(0.5)


@given(st.lists(st.floats(min_value=0, max_value=60, allow_nan=False),
                min_size=1, max_size=200),
       st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
@example(times=[2.0, 0.1], length=0.1)  # 1.9 / 0.1 rounds down to 18.999...
def test_segment_assignment_conservation(times, length):
    # brute-force oracle: every frame lands in exactly one window, and window
    # boundaries tile the span (window k ends where window k+1 starts)
    log = make_log([(t, 0x1) for t in times])
    windows = segment_windows(log, length)
    assert sum(len(w.frames) for w in windows) == len(log.frames)
    for k, w in enumerate(windows):
        upper = windows[k + 1].start if k + 1 < len(windows) else np.inf
        for f in w.frames:
            assert w.start <= f.timestamp < upper


def test_sliding_windows_start_at_every_grid_point_up_to_the_last_frame():
    # the same rounding as the example above: the grid point 0.1 + 19 * 0.1
    # equals the last timestamp, so a window starts there
    log = make_log([(0.1, 1), (2.0, 1)])
    for length, stride in ((0.1, 0.05), (0.2, 0.1), (0.3, 0.1)):
        windows = segment_windows(log, length, stride=stride)
        grid = 0.1 + np.arange(len(windows) + 1) * stride
        assert [w.start for w in windows] == grid[:-1].tolist()
        assert grid[-1] > 2.0 and windows[-1].start == 2.0
        assert windows[-1].partial and len(windows[-1].frames) == 1


def test_segment_60s_synthetic_conservation():
    from canoc.simulate import default_bus, generate_normal
    log = generate_normal(default_bus(60.0, seed=9))
    windows = segment_windows(log, 1.0)
    assert len(windows) == 60
    assert sum(len(w.frames) for w in windows) == len(log.frames)


# --- feature extraction ------------------------------------------------------

VOCAB1 = IdVocabulary((0x1,), include_other_bucket=False)


def window_of(entries, start=0.0, length=1.0):
    return Window(start, length, make_log(entries).frames)


def test_uniform_gaps():
    w = window_of([(k / 10, 0x1) for k in range(10)])
    f, dt, s = extract_features(w, VOCAB1).values
    assert f == pytest.approx(10.0, rel=1e-12)
    assert dt == pytest.approx(0.1, rel=1e-12)
    assert s == pytest.approx(0.0, abs=1e-12)


def test_absent_id_convention():
    w = Window(0.0, 1.0, ())
    assert extract_features(w, VOCAB1).values.tolist() == [0.0, 1.0, 0.0]


def test_singleton_id_convention():
    w = window_of([(0.4, 0x1)], length=2.0)
    assert extract_features(w, VOCAB1).values.tolist() == [0.0, 2.0, 0.0]


def test_three_arrival_example():
    # gaps {0.1, 0.2}: dt = 0.15, f = 6.666..., population stdev = 0.05
    w = window_of([(0.0, 0x1), (0.1, 0x1), (0.3, 0x1)])
    f, dt, s = extract_features(w, VOCAB1).values
    assert dt == pytest.approx(0.15, rel=1e-12)
    assert f == pytest.approx(1 / 0.15, rel=1e-12)
    assert s == pytest.approx(0.05, rel=1e-12)
    assert_matches_oracle(w, VOCAB1)


def test_other_bucket_pools_foreign_ids():
    vocab = IdVocabulary((0x1,), include_other_bucket=True)
    w = window_of([(0.0, 0x9), (0.25, 0x8), (0.5, 0x9), (0.75, 0x7)])
    values = extract_features(w, vocab).values
    assert values[:3].tolist() == [0.0, 1.0, 0.0]  # 0x1 absent
    f, dt, s = values[3:]
    assert dt == pytest.approx(0.25, rel=1e-12)
    assert f == pytest.approx(4.0, rel=1e-12)


def test_timestamp_stdev_mode():
    w = window_of([(0.0, 0x1), (0.1, 0x1), (0.3, 0x1)])
    _, _, s = extract_features(w, VOCAB1, stdev_mode="timestamps").values
    assert s == pytest.approx(statistics.pstdev([0.0, 0.1, 0.3]), rel=1e-12)
    assert_matches_oracle(w, VOCAB1, "timestamps")


def test_equal_timestamp_permutation_invariance(rng):
    vocab = IdVocabulary((0x1, 0x2, 0x3))
    entries = [(0.1, 0x1), (0.1, 0x2), (0.1, 0x3), (0.5, 0x1), (0.5, 0x2)]
    base = extract_features(window_of(entries), vocab).values
    for _ in range(5):
        rng.shuffle(entries)
        shuffled = sorted(entries, key=lambda e: e[0])
        again = extract_features(window_of(shuffled), vocab).values
        assert np.array_equal(base, again)


def test_features_ignore_payload_bytes():
    vocab = IdVocabulary((0x1,))
    w1 = window_of([(0.0, 0x1, b"\x00"), (0.5, 0x1, b"\x00")])
    w2 = window_of([(0.0, 0x1, b"\xff\xff"), (0.5, 0x1, b"")])
    assert np.array_equal(extract_features(w1, vocab).values,
                          extract_features(w2, vocab).values)


def test_random_windows_match_oracle(rng):
    vocab = IdVocabulary((0x10, 0x20, 0x30, 0x40), include_other_bucket=True)
    pool = [0x10, 0x20, 0x30, 0x40, 0x50, 0x60]
    for _ in range(50):
        n = int(rng.integers(0, 80))
        times = np.sort(rng.uniform(0, 1, n))
        ids = rng.choice(pool, n)
        w = Window(0.0, 1.0, tuple(CanFrame(float(t), int(i))
                                   for t, i in zip(times, ids)))
        assert_matches_oracle(w, vocab)
        assert_matches_oracle(w, vocab, "timestamps")


def test_dimension_constant_across_windows(rng):
    vocab = IdVocabulary((0x10, 0x20), include_other_bucket=True)
    for n in (0, 1, 5, 40):
        times = np.sort(rng.uniform(0, 1, n))
        w = Window(0.0, 1.0, tuple(CanFrame(float(t), 0x10) for t in times))
        assert extract_features(w, vocab).values.shape == (vocab.dimension,)


def numpy_reference_row(window, vocab, stdev_mode):
    """One window's features by a per-ID mask and numpy's own diff/mean/std."""
    times, ids = window.frames.times, window.frames.ids
    masks = [ids == i for i in vocab.ids]
    if vocab.include_other_bucket:
        masks.append(~np.isin(ids, vocab.ids))
    row = []
    for mask in masks:
        t = times[mask]
        if t.size <= 1:
            row += [0.0, window.length, 0.0]
            continue
        gaps = np.diff(t)
        dt = max(float(np.mean(gaps)), 1e-9)
        row += [1.0 / dt, dt, float(np.std(gaps if stdev_mode == "gaps" else t))]
    return np.array(row)


@pytest.mark.parametrize("stdev_mode", STDEV_MODES)
@pytest.mark.parametrize("other_bucket", [True, False])
@pytest.mark.parametrize("stride", [1.0, 0.4], ids=["tumbling", "sliding"])
def test_matrix_rows_equal_features_of_rebuilt_windows(stride, other_bucket, stdev_mode):
    # 90 s of traffic is several blocks of the all-window pass, and the
    # zero-ID flood puts 800-odd frames per window into the 0x0 slot, past
    # the 128 elements where numpy's pairwise summation starts to split
    log = inject(generate_normal(default_bus(90.0, seed=4)),
                 AttackScenario(kind="random_id", rate=300.0, window=(2.0, 5.0), seed=3)).log
    log = inject(log, AttackScenario(kind="zero_id", rate=800.0, window=(40.0, 60.0),
                                     seed=5)).log
    assert len(log) > 3 * features.BLOCK_ROWS
    normal_ids = build_vocabulary(generate_normal(default_bus(2.0, seed=4))).ids
    vocab = IdVocabulary((0x0,) + normal_ids, other_bucket)
    windows = segment_windows(log, 1.0, stride)
    X, _ = extract_matrix(windows, vocab, stdev_mode)
    assert X.shape == (len(windows), vocab.dimension)
    assert np.count_nonzero(log.ids == 0) > 800 * 19
    for row, w in zip(X, windows):
        assert np.array_equal(row, numpy_reference_row(w, vocab, stdev_mode))
        rebuilt = Window(w.start, w.length, tuple(w.frames))
        assert np.array_equal(row, extract_features(rebuilt, vocab, stdev_mode).values)


def test_mostly_silent_log_spans_several_blocks_and_equals_the_reference():
    # two bursts 7000 s apart: the 7000-odd windows between them hold no
    # frames, yet each still makes a row per slot, so they fill several blocks
    times = np.concatenate([np.arange(0.0, 2.0, 0.01), 7000.0 + np.arange(0.0, 2.0, 0.01)])
    log = make_log([(float(t), 0x1 + k % 11) for k, t in enumerate(times)])
    vocab = IdVocabulary(tuple(range(0x1, 0xB)))
    windows = segment_windows(log, 1.0)
    width = len(vocab.ids) + 1
    blocks = list(features._blocks(windows, width))
    assert len(blocks) > 1
    for lo, hi in blocks:
        assert sum(len(w.frames) + width for w in windows[lo:hi]) <= features.BLOCK_ROWS
    X, _ = extract_matrix(windows, vocab)
    for row, w in zip(X, windows):
        assert np.array_equal(row, numpy_reference_row(w, vocab, "gaps"))


segment_lengths = st.integers(0, 1100) | st.sampled_from(
    [0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 135, 255, 256, 257, 263, 1100])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(segment_lengths, st.integers(0, 20)), max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_pairwise_sums_equal_numpy_reduce_bit_for_bit(segments, seed):
    rng = np.random.default_rng(seed)
    size = sum(n + skip for n, skip in segments)
    x = 10.0 ** rng.uniform(-9.0, 3.0, size)
    x[rng.random(size) < 0.05] = 0.0
    starts, at = [], 0
    for n, skip in segments:
        starts.append(at + skip)
        at += skip + n
    lengths = [n for n, _ in segments]
    got = features._pairwise_sums(x, np.array(starts, dtype=np.int64),
                                  np.array(lengths, dtype=np.int64))
    want = np.array([np.add.reduce(x[s:s + n]) for s, n in zip(starts, lengths)],
                    dtype=float)
    assert got.tobytes() == want.tobytes()


# --- scaler -------------------------------------------------------------------

def test_scaler_constant_column_floors():
    X = np.array([[1.0, 5.0], [1.0, 7.0]])
    scaler = fit_scaler(X)
    out = apply_scaler(scaler, X)
    assert np.allclose(out[:, 0], 0.0)
    assert scaler.stdev[0] == pytest.approx(1e-8)


def test_scaler_two_point_column():
    X = np.array([[0.0], [2.0]])
    scaler = fit_scaler(X)
    assert scaler.mean[0] == pytest.approx(1.0)
    assert scaler.stdev[0] == pytest.approx(1.0)
    assert apply_scaler(scaler, X)[:, 0].tolist() == [-1.0, 1.0]


def test_scaler_standardizes_random_matrix(rng):
    X = rng.normal(3.0, 2.5, size=(100, 6))
    out = apply_scaler(fit_scaler(X), X)
    assert np.abs(out.mean(axis=0)).max() < 1e-12
    assert np.abs(out.std(axis=0) - 1).max() < 1e-12


def test_scaler_dimension_mismatch():
    scaler = fit_scaler(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="columns"):
        apply_scaler(scaler, np.zeros((3, 5)))


# --- feature CSV ---------------------------------------------------------------

def test_feature_csv_roundtrip(tmp_path, rng):
    vocab = IdVocabulary((0x100, 0x200), include_other_bucket=True)
    X = rng.standard_normal((4, vocab.dimension))
    labels = ["normal", "zero_id", "normal", "replay"]
    path = tmp_path / "features.csv"
    with open(path, "w") as f:
        write_feature_csv(f, X, labels, vocab)
    with open(path) as f:
        X2, labels2, vocab2 = read_feature_csv(f)
    assert np.array_equal(X, X2)
    assert labels2 == labels
    assert vocab2 == vocab


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", "abc", ""])
def test_feature_csv_rejects_bad_cell_naming_line_and_column(tmp_path, cell):
    vocab = IdVocabulary((0x100, 0x200), include_other_bucket=True)
    names = vocab.feature_names()
    lines = ["label," + ",".join(names)]
    for _ in range(3):
        lines.append("normal," + ",".join(["1.5"] * len(names)))
    row = lines[2].split(",")
    row[5] = cell
    lines[2] = ",".join(row)
    path = tmp_path / "features.csv"
    path.write_text("\n".join(lines) + "\n")
    with open(path) as f, pytest.raises(ValueError, match=f"line 3, column '{names[4]}'"):
        read_feature_csv(f)


# --- reader properties -----------------------------------------------------------

# id tags as a writer or a hand edit might spell them: mostly 0x-hex, with
# values well past the 29-bit range, negatives and stray text
ID_TAGS = st.one_of(
    st.tuples(st.sampled_from(["0x{:X}", "0x{:x}", "0X{:X}", "{:X}", "{:d}"]),
              st.integers(-2 ** 40, 2 ** 80)).map(lambda fi: fi[0].format(fi[1])),
    st.sampled_from(["other", "0x1FFFFFFF", "0x20000000", "0x-1", "0x1_0"]),
    st.text(max_size=5))
CELLS = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=4))


@st.composite
def feature_csv_texts(draw):
    tags = draw(st.lists(ID_TAGS, min_size=1, max_size=3))
    names = [f"{prefix}_{tag}" for tag in tags for prefix in ("f", "dt", "sd")]
    for pos, name in draw(st.lists(st.tuples(st.integers(0, len(names)), st.text(max_size=6)),
                                   max_size=1)):
        names.insert(pos, name)
    rows = draw(st.lists(st.lists(CELLS, min_size=len(names), max_size=len(names) + 1),
                         max_size=3))
    return "".join(",".join(["label"] + cells) + "\n"
                   for cells in [names] + [["normal"] + row[:len(names)] for row in rows])


@given(feature_csv_texts())
@example("label,f_-1,dt_-1,sd_-1\nnormal,1.0,1.0,0.0\n")
@example("label,f_0x20000000,dt_0x20000000,sd_0x20000000\n")
@settings(max_examples=300, deadline=None)
def test_feature_csv_reader_returns_can_ids_and_a_finite_matrix_or_raises(text):
    try:
        X, labels, vocab = read_feature_csv(io.StringIO(text))
    except ValueError:
        return
    assert all(0 <= i <= CAN_EFF_MAX for i in vocab.ids)
    width = len(text.split("\n", 1)[0].split(",")) - 1
    assert X.shape == (len(labels), width) and width == vocab.dimension
    assert np.isfinite(X).all()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                  max_size=3),
    max_leaves=6)


@st.composite
def spec_docs(draw):
    """A well-formed vocabulary document, then at most one key replaced by
    any JSON value, dropped, or added."""
    doc = {"ids": draw(st.lists(ID_TAGS, min_size=1, max_size=3)),
           "include_other_bucket": draw(st.booleans()),
           "window": draw(st.floats(0.01, 10)), "stride": draw(st.floats(0.01, 10)),
           "stdev_mode": draw(st.sampled_from(STDEV_MODES))}
    key = draw(st.sampled_from(SPEC_KEYS + ("bogus",)))
    edit = draw(st.sampled_from(["keep", "replace", "drop"]))
    if edit == "replace":
        doc[key] = draw(JSON_VALUES)
    elif edit == "drop":
        doc.pop(key, None)
    return doc


@given(spec_docs() | JSON_VALUES)
@example({"ids": ["0x100", "0x1FFFFFFFFFFFFFFFFFFFF"], "include_other_bucket": True,
          "window": 1.0, "stride": 1.0, "stdev_mode": "gaps"})
@settings(max_examples=300, deadline=None)
def test_spec_reader_returns_can_ids_or_raises(doc):
    try:
        spec = spec_from_dict(doc, "spec")
    except ValueError:
        return
    assert all(0 <= i <= CAN_EFF_MAX for i in spec.vocab.ids)
    assert spec_from_dict(spec_to_dict(spec), "spec") == spec
