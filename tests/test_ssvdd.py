import json
import tracemalloc

import numpy as np
import pytest

from canoc import (KernelSpec, SplitSpec, apply_scaler, build_vocabulary, default_bus, evaluate,
                   extract_matrix, fit_model, fit_scaler, generate_normal, npt_embed, predict,
                   score_samples, segment_windows, split, ssvdd_fit, svdd_fit)
from canoc.models import (FactorGram, NptEmbedding, PSI_VARIANTS, gram_matrix,
                          orthonormalize_rows, solve_svdd_dual, ssvdd_gradient,
                          ssvdd_objective)
from canoc.models.persist import model_to_dict
from canoc.models.smo import ball_start
from canoc.models.ssvdd import psi_selector
from canoc.models import ssvdd as ssvdd_module


def finite_difference_gradient(X, Q, alphas, beta, psi, h=1e-5):
    fd = np.zeros_like(Q)
    for r in range(Q.shape[0]):
        for c in range(Q.shape[1]):
            Qp = Q.copy(); Qp[r, c] += h
            Qm = Q.copy(); Qm[r, c] -= h
            fd[r, c] = (ssvdd_objective(X, Qp, alphas, beta, psi)
                        - ssvdd_objective(X, Qm, alphas, beta, psi)) / (2 * h)
    return fd


@pytest.mark.parametrize("psi", PSI_VARIANTS)
def test_gradient_matches_finite_differences(psi, rng):
    X = rng.standard_normal((20, 5))
    Q = orthonormalize_rows(rng.standard_normal((3, 5)))
    Y = X @ Q.T
    alphas = solve_svdd_dual(Y @ Y.T, 0.2)
    beta = 0.0 if psi == "psi0" else 0.05
    grad = ssvdd_gradient(X, Q, alphas, beta, psi)
    fd = finite_difference_gradient(X, Q, alphas, beta, psi)
    rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
    assert rel <= 1e-4


def test_q_row_orthonormal_after_every_iteration(rng):
    X = rng.standard_normal((40, 6))
    deviations = []

    def watch(it, Q, alphas):
        deviations.append(np.abs(Q @ Q.T - np.eye(Q.shape[0])).max())
        assert abs(alphas.sum() - 1.0) <= 1e-6

    ssvdd_fit(X, d=3, C=0.3, iterations=12, iteration_callback=watch)
    assert len(deviations) == 12
    assert max(deviations) <= 1e-6


def test_reduction_to_plain_svdd(rng):
    # d = D, beta = 0, no iterations, identity init: exactly plain SVDD
    X = rng.standard_normal((30, 4))
    T = rng.standard_normal((20, 4)) * 2
    plain = svdd_fit(X, 0.5)
    sub = ssvdd_fit(X, d=4, C=0.5, beta=0.0, iterations=0, q_init="identity")
    assert np.array_equal(predict(plain, T), predict(sub, T))
    assert np.array_equal(score_samples(plain, T), score_samples(sub, T))


def test_psi0_equals_psi1_when_beta_zero(rng):
    X = rng.standard_normal((25, 5))
    kwargs = dict(d=2, C=0.4, beta=0.0, iterations=8, eta=0.05)
    m0 = ssvdd_fit(X, psi="psi0", **kwargs)
    m1 = ssvdd_fit(X, psi="psi1", **kwargs)
    assert np.array_equal(m0.transforms[-1].q, m1.transforms[-1].q)
    T = rng.standard_normal((10, 5))
    assert np.array_equal(score_samples(m0, T), score_samples(m1, T))


def test_iterations_must_not_be_negative(rng):
    X = rng.standard_normal((10, 3))
    with pytest.raises(ValueError, match="iterations must be >= 0, got -3"):
        ssvdd_fit(X, d=2, iterations=-3)
    assert ssvdd_fit(X, d=2, iterations=0).params["iterations"] == 0


def test_d_bounds_checked(rng):
    X = rng.standard_normal((10, 3))
    with pytest.raises(ValueError, match="d="):
        ssvdd_fit(X, d=5, iterations=0)
    with pytest.raises(ValueError, match="d="):
        ssvdd_fit(X, d=0, iterations=0)


def test_non_finite_gradient_reports_iteration(rng, monkeypatch):
    X = rng.standard_normal((15, 3))
    monkeypatch.setattr(ssvdd_module, "ssvdd_gradient",
                        lambda *a, **k: np.full((2, 3), np.nan))
    with pytest.raises(ValueError, match="iteration 0"):
        ssvdd_fit(X, d=2, iterations=3)


def test_inner_solves_warm_start_from_previous_alphas(rng, monkeypatch):
    X = rng.standard_normal((30, 5))
    grams, starts, results = [], [], []

    def spy(K, C, **kwargs):
        grams.append(K)
        starts.append(kwargs.get("a0"))
        results.append(solve_svdd_dual(K, C, **kwargs))
        return results[-1]

    monkeypatch.setattr(ssvdd_module, "solve_svdd_dual", spy)
    ssvdd_fit(X, d=2, C=0.3, iterations=6)
    # the first solve starts cold at the farthest rows, each later one warm
    assert len(starts) == 6 and np.array_equal(starts[0], ball_start(grams[0], 0.3))
    assert all(start is prev for start, prev in zip(starts[1:], results))


def test_default_d_caps_at_ten(rng):
    X = rng.standard_normal((40, 15))
    model = ssvdd_fit(X, iterations=1)
    assert model.params["d"] == 10 and model.transforms[-1].q.shape == (10, 15)


def test_random_init_is_seeded(rng):
    X = rng.standard_normal((20, 4))
    m1 = ssvdd_fit(X, d=2, iterations=2, q_init="random", seed=7)
    m2 = ssvdd_fit(X, d=2, iterations=2, q_init="random", seed=7)
    assert np.array_equal(m1.transforms[-1].q, m2.transforms[-1].q)


# --- nonlinear path: kernel-matrix factorization ----------------------------

def center(K):
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    return H @ K @ H


def test_npt_identity_gram():
    K = np.eye(6)
    Z = npt_embed(K)
    assert np.abs(Z @ Z.T - center(K)).max() <= 1e-8


def test_npt_rank_one_gram(rng):
    v = rng.standard_normal(8)
    Z = npt_embed(np.outer(v, v))
    assert Z.shape[1] == 1


def test_npt_random_psd_reconstruction(rng):
    A = rng.standard_normal((30, 30))
    K = A @ A.T
    Z = npt_embed(K)
    assert np.abs(Z @ Z.T - center(K)).max() <= 1e-8


def test_npt_rejects_non_psd():
    # negative direction orthogonal to the all-ones vector, so centering
    # cannot mask it
    v = np.array([1.0, -1.0]) / np.sqrt(2)
    K = np.eye(2) - 1.5 * np.outer(v, v)
    with pytest.raises(ValueError, match="PSD"):
        npt_embed(K)


def test_npt_out_of_sample_matches_training_rows(rng):
    X = rng.standard_normal((25, 3))
    kernel = KernelSpec("rbf", 1.2)
    emb = NptEmbedding.fit(X, kernel)
    assert np.abs(emb.transform(X) - npt_embed(gram_matrix(X, X, kernel))).max() <= 1e-8


def test_nonlinear_ssvdd_trains_and_scores(rng):
    X = rng.standard_normal((40, 3))
    model = ssvdd_fit(X, d=5, C=0.5, iterations=5, kernel=KernelSpec("rbf"))
    assert isinstance(model.transforms[0], NptEmbedding)
    scores = score_samples(model, X)
    assert np.isfinite(scores).all()
    assert (scores <= 1e-6).mean() >= 0.9  # most training rows contained


def test_nonlinear_ssvdd_far_points_saturate(rng):
    # the projection trick truncates out-of-span components: all far points
    # collapse onto the image of the zero kernel vector
    X = rng.standard_normal((40, 3))
    model = ssvdd_fit(X, d=5, C=0.5, iterations=3, kernel=KernelSpec("rbf"))
    s1 = score_samples(model, np.full((1, 3), 50.0))[0]
    s2 = score_samples(model, np.full((1, 3), -80.0))[0]
    assert s1 == pytest.approx(s2, abs=1e-9)


# --- outer iterations that never form the n x n gram -------------------------------

def test_warm_solves_read_few_gram_rows_and_form_no_n_by_n_product(monkeypatch):
    n = 400
    X = np.random.default_rng(8).standard_normal((n, 12))
    rows_read, growth, ran = [], [], []
    start = [0]

    def spy(K, C, **kwargs):
        assert isinstance(K, FactorGram)
        alphas = solve_svdd_dual(K, C, **kwargs)
        rows_read.append(len(K.rows))
        return alphas

    def watch(it, Q, alphas):  # memory taken during each outer iteration after the first
        ran.append(it)
        current, peak = tracemalloc.get_traced_memory()
        if it > 0:
            growth.append(peak - start[0])
        tracemalloc.reset_peak()
        start[0] = current

    monkeypatch.setattr(ssvdd_module, "solve_svdd_dual", spy)
    tracemalloc.start()
    try:
        ssvdd_fit(X, d=3, C=0.05, iterations=10, iteration_callback=watch)
    finally:
        tracemalloc.stop()
    # one solve per outer iteration that ran; fewer than n rows per warm solve
    warm = len(ran) - 1
    assert len(rows_read) == len(ran) and warm > 0 and sum(rows_read[1:]) < n * warm
    assert len(growth) == warm and max(growth) < n * n * 8 / 4


# --- the outer loop stops once its objective settles -------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_the_outer_loop_stops_once_its_objective_settles(seed, monkeypatch):
    # data near a 3-d subspace, from a random start: Q finds the subspace
    # within a few iterations and the objective then stands still
    rng = np.random.default_rng(seed)
    X = (rng.standard_normal((60, 3)) @ rng.standard_normal((3, 8))
         + 0.01 * rng.standard_normal((60, 8)))
    objectives, seen = [], []

    def spy(Y, sq_norms, alphas, beta, psi):
        objectives.append((projected(Y, sq_norms, alphas, beta, psi), alphas.copy()))
        return objectives[-1][0]

    projected = ssvdd_module._projected_objective
    monkeypatch.setattr(ssvdd_module, "_projected_objective", spy)
    kwargs = dict(d=3, C=0.1, psi="psi1", q_init="random", seed=seed, iterations=50)
    model = ssvdd_fit(X, iteration_callback=lambda it, Q, alphas: seen.append((it, Q)),
                      **kwargs)
    monkeypatch.undo()  # ssvdd_objective below calls the original
    assert 2 < len(seen) < 50 and len(objectives) == len(seen)
    assert [it for it, _ in seen] == list(range(len(seen)))
    assert all(np.abs(Q @ Q.T - np.eye(3)).max() <= 1e-12 for _, Q in seen)
    # each value is the objective at the Q that iteration's solve projected with
    for (_, Q), (value, alphas) in zip(seen, objectives[1:]):
        assert abs(value - ssvdd_objective(X, Q, alphas, 0.01, "psi1")) <= 1e-10 * abs(value)
    values = np.array([value for value, _ in objectives])
    change = np.abs(np.diff(values)) / np.abs(values[1:])
    assert (change[:-1] > ssvdd_module.STOP_TOL).all() and change[-1] <= ssvdd_module.STOP_TOL
    assert model.params["iterations"] == 50  # the cap, as given
    again = ssvdd_fit(X, **kwargs)
    assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(again))


def test_the_iteration_cap_binds_while_the_objective_moves():
    X = np.random.default_rng(0).standard_normal((40, 6))
    ran = []
    ssvdd_fit(X, d=3, C=0.3, iterations=12, iteration_callback=lambda it, Q, a: ran.append(it))
    assert ran == list(range(12))
    # uncapped, the same fit runs on past 12 and still stops on its own
    ran.clear()
    ssvdd_fit(X, d=3, C=0.3, iterations=200, iteration_callback=lambda it, Q, a: ran.append(it))
    assert 12 < len(ran) < 200


def test_support_row_gradient_equals_the_all_rows_formula(rng):
    X = rng.standard_normal((60, 7))
    Q = orthonormalize_rows(rng.standard_normal((3, 7)))
    Y = X @ Q.T
    alphas = solve_svdd_dual(Y @ Y.T, 0.1)
    assert 0 < (alphas == 0).sum() < 60
    for psi in PSI_VARIANTS:
        Xa = X.T @ alphas
        M = X.T @ (alphas[:, None] * X) - np.outer(Xa, Xa)
        lam = psi_selector(psi, alphas)
        if lam is not None:
            v = X.T @ lam
            M = M + 0.05 * np.outer(v, v)
        expected = 2.0 * Q @ M
        got = ssvdd_gradient(X, Q, alphas, 0.05, psi)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_the_cli_default_fit_detects_on_the_acceptance_seeds():
    # the CLI fits S-SVDD from a PCA start with every other default; the
    # start keeps the columns that are constant in normal training, which is
    # where the zero-ID flood shows up
    from test_acceptance import ATTACK_SPECS, _attack_rows

    overall, zero_id = [], []
    for seed in range(5):
        log = generate_normal(default_bus(600.0, seed=seed))
        vocab = build_vocabulary(log)
        parts = [extract_matrix([w for w in segment_windows(log, 1.0) if not w.partial], vocab)]
        parts += [_attack_rows(seed + offset, kind, vocab) for kind, offset in ATTACK_SPECS]
        train, test, test_labels = split(np.vstack([X for X, _ in parts]),
                                         [label for _, labels in parts for label in labels],
                                         SplitSpec(0.7, seed=seed))
        scaler = fit_scaler(train)
        report = evaluate(fit_model("ssvdd", apply_scaler(scaler, train), scaler=scaler),
                          test, test_labels)
        overall.append(report.gmean)
        zero_id.append(report.per_attack["zero_id"])
    assert np.mean(overall) >= 0.80 and np.mean(zero_id) >= 0.80, (overall, zero_id)
