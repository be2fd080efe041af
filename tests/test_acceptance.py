"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; criterion 6/7 share one end-to-end fixture (5 seeds, ~30 s).
"""

import statistics
import time
from collections import defaultdict

import numpy as np
import pytest

from canoc import (AttackScenario, IdVocabulary, KernelSpec, LabeledLog,
                   SplitSpec, Window, apply_scaler, build_vocabulary,
                   default_bus, esvdd_fit, evaluate, extract_features,
                   extract_matrix, fit_model, fit_scaler, generate_normal,
                   geocsvm_fit, gesvdd_fit, inject, label_windows, load_model,
                   npt_embed, ocsvm_fit, predict, save_model, score_samples,
                   segment_windows, split, ssvdd_fit, svdd_fit)
from canoc.canlog import CanFrame
from canoc.cli import main
from canoc.features import LABEL_NORMAL
from canoc.models import (PSI_VARIANTS, gram_matrix, orthonormalize_rows,
                          solve_svdd_dual, ssvdd_gradient, ssvdd_objective)
from canoc.models.smo import center_distances_sq


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


# --- 1. feature oracle equivalence -------------------------------------------

def oracle_features(window, vocab):
    def stats(times):
        times = sorted(times)
        j = len(times)
        if j <= 1:
            return [0.0, window.length, 0.0]
        gaps = [b - a for a, b in zip(times, times[1:])]
        dt = max((times[-1] - times[0]) / (j - 1), 1e-9)
        return [1.0 / dt, dt, statistics.pstdev(gaps)]

    values = []
    for cid in vocab.ids:
        values.extend(stats([f.timestamp for f in window.frames if f.can_id == cid]))
    if vocab.include_other_bucket:
        values.extend(stats([f.timestamp for f in window.frames
                             if f.can_id not in vocab.ids]))
    return values


def test_criterion_1_feature_oracle_equivalence():
    rng = np.random.default_rng(101)
    vocab = IdVocabulary((0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80),
                         include_other_bucket=True)
    pool = np.array(list(vocab.ids) + [0x90, 0xA0, 0x00])
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 120))
        times = np.sort(rng.uniform(0, 1, n))
        ids = rng.choice(pool, n)
        window = Window(0.0, 1.0, tuple(CanFrame(float(t), int(i))
                                        for t, i in zip(times, ids)))
        got = extract_features(window, vocab).values
        want = oracle_features(window, vocab)
        for g, w in zip(got, want):
            rel = abs(g - w) / max(1.0, abs(w))
            worst = max(worst, rel)
            assert rel <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"1000 windows match the brute-force oracle "
              f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")


# --- 2. SVDD dual correctness --------------------------------------------------

def test_criterion_2_svdd_dual_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for case in range(50):
        n = int(rng.integers(4, 61))
        X = rng.standard_normal((n, int(rng.integers(2, 6))))
        kernel = KernelSpec("linear") if case % 2 else KernelSpec("rbf", 1.5)
        K = gram_matrix(X, X, kernel)
        C = float(rng.uniform(1.5 / n, 1.0))
        alphas = solve_svdd_dual(K, C)
        assert abs(alphas.sum() - 1.0) <= 1e-6
        assert alphas.min() >= 0.0 and alphas.max() <= C + 1e-12
        d2 = center_distances_sq(K, alphas)
        unbounded = (alphas > 1e-8 * C) & (alphas < C * (1 - 1e-8))
        r2 = d2[unbounded].mean() if unbounded.any() else d2[alphas > 1e-8 * C].mean()
        if unbounded.any():
            assert np.abs(d2[unbounded] - r2).max() <= 1e-5
        interior = alphas <= 1e-8 * C
        if interior.any():
            assert d2[interior].max() <= r2 + 1e-5
        bound = alphas >= C * (1 - 1e-8)
        if bound.any():
            assert d2[bound].min() >= r2 - 1e-5

    side = 2.0
    tri = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * np.sqrt(3) / 2]])
    model = svdd_fit(tri, 1.0)
    assert abs(np.sqrt(model.r_squared) - side / np.sqrt(3)) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"50 random duals satisfy KKT; triangle R = side/sqrt(3) "
              f"({elapsed:.2f}s)")


# --- 3. S-SVDD gradient check ---------------------------------------------------

def test_criterion_3_ssvdd_gradient_and_orthonormality():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    X = rng.standard_normal((20, 5))
    Q = orthonormalize_rows(rng.standard_normal((3, 5)))
    Y = X @ Q.T
    alphas = solve_svdd_dual(Y @ Y.T, 0.25)
    h = 1e-5
    for psi in PSI_VARIANTS:
        beta = 0.0 if psi == "psi0" else 0.05
        grad = ssvdd_gradient(X, Q, alphas, beta, psi)
        fd = np.zeros_like(Q)
        for r in range(Q.shape[0]):
            for c in range(Q.shape[1]):
                Qp = Q.copy(); Qp[r, c] += h
                Qm = Q.copy(); Qm[r, c] -= h
                fd[r, c] = (ssvdd_objective(X, Qp, alphas, beta, psi)
                            - ssvdd_objective(X, Qm, alphas, beta, psi)) / (2 * h)
        rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel <= 1e-4, (psi, rel)

    deviations = []
    for psi in PSI_VARIANTS:
        ssvdd_fit(X, d=3, C=0.25, psi=psi, iterations=10,
                  iteration_callback=lambda it, Q, a: deviations.append(
                      np.abs(Q @ Q.T - np.eye(Q.shape[0])).max()))
    assert len(deviations) == 40 and max(deviations) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"analytic dQ matches finite differences for all psi; Q stays "
              f"row-orthonormal (max dev {max(deviations):.2e}, {elapsed:.2f}s)")


# --- 4. reductions ----------------------------------------------------------------

def test_criterion_4_reductions():
    rng = np.random.default_rng(404)
    X = rng.standard_normal((40, 4))
    T = rng.standard_normal((30, 4)) * 1.5

    plain = svdd_fit(X, 0.5)
    sub = ssvdd_fit(X, d=4, C=0.5, beta=0.0, iterations=0, q_init="identity")
    assert np.array_equal(predict(plain, T), predict(sub, T))

    iso = esvdd_fit(X, 0.5, epsilon=1e8)
    order_plain = np.argsort(score_samples(plain, T))
    order_iso = np.argsort(score_samples(iso, T))
    assert np.array_equal(order_plain, order_iso)

    A = rng.standard_normal((30, 30))
    K = A @ A.T
    Z = npt_embed(K)
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    recon = np.abs(Z @ Z.T - H @ K @ H).max()
    assert recon <= 1e-8
    report(4, f"S-SVDD(d=D, beta=0, 0 iter) == SVDD labels; E-SVDD ranking "
              f"preserved on isotropic data; NPT recon err {recon:.2e}")


# --- 5. OC-SVM nu property ----------------------------------------------------------

def test_criterion_5_ocsvm_nu_property():
    nu = 0.1
    fractions = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 4))
        model = ocsvm_fit(X, nu, KernelSpec("rbf"))
        fractions.append(float((score_samples(model, X) > 0).mean()))
    assert max(fractions) <= nu + 0.05
    report(5, f"training outlier fraction <= nu + 0.05 on 20 seeds "
              f"(max {max(fractions):.3f} vs nu = {nu})")


# --- 6 & 7. end-to-end synthetic detection -------------------------------------------

ATTACK_SPECS = (("zero_id", 1000), ("random_id", 2000), ("replay", 3000))


def _attack_rows(bus_seed, kind, vocab):
    base = generate_normal(default_bus(80.0, seed=bus_seed))
    labeled = LabeledLog(base, (LABEL_NORMAL,) * len(base.frames))
    if kind in ("zero_id", "random_id"):
        labeled = inject(labeled, AttackScenario(kind=kind, rate=500.0,
                                                 window=(10.0, 70.0), seed=bus_seed))
    else:
        # several replay instances (each: 1 s segment, repeat 2) for a
        # stable Gmean estimate
        for k in range(6):
            labeled = inject(labeled, AttackScenario(
                kind="replay", window=(20.0 + 4 * k, 22.0 + 4 * k),
                replay_segment=(5.0 + k, 6.0 + k), repeat=2, seed=bus_seed + k))
    windows = [w for w in segment_windows(labeled.log, 1.0) if not w.partial]
    labels = label_windows(labeled, windows)
    X, labels = extract_matrix(windows, vocab, labels=labels)
    keep = [i for i, lab in enumerate(labels) if lab != LABEL_NORMAL]
    return X[keep], [labels[i] for i in keep]


def _run_seed(seed):
    log = generate_normal(default_bus(600.0, seed=seed))
    vocab = build_vocabulary(log)
    windows = [w for w in segment_windows(log, 1.0) if not w.partial]
    Xn, labs = extract_matrix(windows, vocab)
    parts = [(Xn, labs)]
    for kind, offset in ATTACK_SPECS:
        parts.append(_attack_rows(seed + offset, kind, vocab))
    X = np.vstack([p[0] for p in parts])
    labels = sum((p[1] for p in parts), [])

    train, test, test_labels = split(X, labels, SplitSpec(0.7, seed=seed))
    scaler = fit_scaler(train)
    Xtr = apply_scaler(scaler, train)

    out = {"svdd": evaluate(fit_model("svdd", Xtr, C=1.0, scaler=scaler),
                            test, test_labels)}
    for psi in PSI_VARIANTS:
        # random (seeded) subspace init: the synthetic other-bucket columns
        # are constant in normal traffic, and a PCA basis would exclude those
        # zero-variance directions from the subspace entirely
        model = fit_model("ssvdd", Xtr, C=1.0, d=10, psi=psi,
                          q_init="random", seed=seed, scaler=scaler)
        out[f"ssvdd-{psi}"] = evaluate(model, test, test_labels)
    out["ocsvm"] = evaluate(fit_model("ocsvm", Xtr, nu=0.1, scaler=scaler),
                            test, test_labels)
    return out


@pytest.fixture(scope="module")
def end_to_end():
    start = time.perf_counter()
    per_tag = defaultdict(list)
    for seed in range(5):
        for tag, rpt in _run_seed(seed).items():
            per_tag[tag].append(rpt)
    elapsed = time.perf_counter() - start
    means = {}
    for tag, rpts in per_tag.items():
        entry = {"overall": float(np.mean([r.gmean for r in rpts]))}
        for kind in rpts[0].per_attack:
            entry[kind] = float(np.mean([r.per_attack[kind] for r in rpts]))
        means[tag] = entry
    return means, elapsed


def test_criterion_6_end_to_end_thresholds(end_to_end):
    means, elapsed = end_to_end
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"
    assert means["svdd"]["zero_id"] >= 0.95
    assert means["svdd"]["random_id"] >= 0.85
    assert means["ssvdd-psi1"]["replay"] >= 0.80
    best_ssvdd = max(means[f"ssvdd-{psi}"]["overall"] for psi in PSI_VARIANTS)
    assert best_ssvdd >= 0.80
    report(6, f"seed-averaged Gmeans: SVDD zero={means['svdd']['zero_id']:.3f} "
              f"random={means['svdd']['random_id']:.3f} "
              f"psi1 replay={means['ssvdd-psi1']['replay']:.3f} "
              f"best S-SVDD overall={best_ssvdd:.3f} ({elapsed:.0f}s)")


def test_criterion_7_ocsvm_ranks_last(end_to_end):
    means, _ = end_to_end
    best_ssvdd = max(means[f"ssvdd-{psi}"]["overall"] for psi in PSI_VARIANTS)
    assert means["ocsvm"]["overall"] <= best_ssvdd
    report(7, f"OC-SVM overall {means['ocsvm']['overall']:.3f} <= best "
              f"S-SVDD {best_ssvdd:.3f}")


# --- 8. persistence --------------------------------------------------------------------

def test_criterion_8_persistence_bit_identical(tmp_path):
    rng = np.random.default_rng(808)
    X = rng.standard_normal((60, 4))
    scaler = fit_scaler(X)
    Xs = apply_scaler(scaler, X)
    probe = rng.standard_normal((100, 4)) * 2
    rbf = KernelSpec("rbf")
    models = {
        "svdd-linear": svdd_fit(Xs, 0.3, scaler=scaler),
        "svdd-rbf": svdd_fit(Xs, 0.3, rbf, scaler=scaler),
        "ssvdd-linear": ssvdd_fit(Xs, d=3, C=0.3, iterations=5, scaler=scaler),
        "ssvdd-rbf": ssvdd_fit(Xs, d=3, C=0.3, iterations=5, kernel=rbf,
                               scaler=scaler),
        "esvdd": esvdd_fit(Xs, 0.3, 1e-2, scaler=scaler),
        "gesvdd": gesvdd_fit(Xs, 0.3, k=5, scaler=scaler),
        "ocsvm": ocsvm_fit(Xs, 0.2, rbf, scaler=scaler),
        "geocsvm": geocsvm_fit(Xs, 0.2, k=5, scaler=scaler),
    }
    for name, model in models.items():
        path = tmp_path / f"{name}.json"
        save_model(model, str(path))
        loaded, _ = load_model(str(path))
        assert np.array_equal(score_samples(model, probe),
                              score_samples(loaded, probe)), name
    report(8, f"{len(models)} model families round-trip with bit-identical "
              f"scores on a 100-row probe")


# --- 9. command determinism ---------------------------------------------------------------

def test_criterion_9_command_determinism(tmp_path, capsys):
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        log = d / "log.csv"
        labels = d / "log.csv.labels.csv"
        assert main(["simulate", "--out", str(log), "--duration", "30",
                     "--seed", "5"]) == 0
        attacked = d / "attacked.csv"
        assert main(["inject", "--in", str(log), "--labels", str(labels),
                     "--out", str(attacked), "--kind", "zero_id", "--rate",
                     "400", "--start", "8", "--end", "16", "--seed", "5"]) == 0
        feats = d / "features.csv"
        assert main(["extract", "--in", str(log), "--out", str(feats)]) == 0
        model = d / "model.json"
        assert main(["train", "--features", str(feats), "--out", str(model),
                     "--family", "svdd", "--c", "1.0"]) == 0
        test_feats = d / "test.csv"
        vocab = d / "vocab.json"
        assert main(["extract", "--in", str(log), "--out", str(d / "f2.csv"),
                     "--save-vocab", str(vocab)]) == 0
        assert main(["extract", "--in", str(attacked), "--vocab", str(vocab),
                     "--labels", str(attacked) + ".labels.csv",
                     "--out", str(test_feats)]) == 0
        table, summary = d / "table.csv", d / "summary.json"
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--features",
                     str(test_feats), "--out-table", str(table),
                     "--out-summary", str(summary)]) == 0
        code = main(["detect", "--model", str(model), "--in", str(attacked)])
        assert code == 4
        detect_out = capsys.readouterr().out
        outputs.append({
            "log": log.read_bytes(),
            "labels": labels.read_bytes(),
            "attacked": attacked.read_bytes(),
            "features": feats.read_bytes(),
            "model": model.read_bytes(),
            "test_features": test_feats.read_bytes(),
            "table": table.read_bytes(),
            "summary": summary.read_bytes(),
            "detect": detect_out,
        })
    first, second = outputs
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
    report(9, "two consecutive runs of every command produced byte-identical "
              "outputs")
