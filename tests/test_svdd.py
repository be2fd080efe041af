import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canoc import (KernelSpec, esvdd_fit, gesvdd_fit, predict, score_samples, ssvdd_fit,
                   svdd_fit)
from canoc.models import gram_matrix, kernels, median_heuristic, resolve_kernel
from canoc.models.kernels import squared_distances


def test_identical_training_set_flags_everything_else():
    X = np.tile([1.0, 2.0], (5, 1))
    model = svdd_fit(X, 1.0)
    assert model.r_squared <= 1e-12
    assert score_samples(model, [1.0, 2.0])[0] <= 1e-9
    assert score_samples(model, [1.1, 2.0])[0] > 0


def test_alpha_invariants(rng):
    X = rng.standard_normal((60, 3))
    for C in (0.05, 0.2, 1.0):
        model = svdd_fit(X, C)
        assert abs(model.alphas.sum() - 1.0) <= 1e-6
        assert model.alphas.min() >= 0 and model.alphas.max() <= C + 1e-12
        assert model.r_squared >= 0


def test_unbounded_support_vector_scores_zero(rng):
    X = rng.standard_normal((50, 2))
    model = svdd_fit(X, 0.3)
    unbounded = (model.alphas > 1e-6) & (model.alphas < 0.3 * (1 - 1e-6))
    assert unbounded.any()
    scores = score_samples(model, model.support_samples[unbounded])
    assert np.abs(scores).max() <= 1e-6


def test_center_of_symmetric_pair_scores_minus_r2():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    model = svdd_fit(X, 1.0)
    assert score_samples(model, [0.0, 0.0])[0] == pytest.approx(-model.r_squared, abs=1e-9)


def test_far_point_rbf_limit(rng):
    X = rng.standard_normal((40, 2))
    sigma = 1.0
    model = svdd_fit(X, 0.5, KernelSpec("rbf", sigma))
    far = np.array([10 * sigma * 40, 0.0])  # K(x, x_i) ~ 0
    expected = 1.0 + model.offset - model.r_squared
    assert score_samples(model, far)[0] == pytest.approx(expected, abs=1e-12)


def test_unit_disc_radius_monte_carlo(rng):
    # oracle: the radius holding ~90% of the mass, estimated from the sample
    angles = rng.uniform(0, 2 * np.pi, 200)
    radii = np.sqrt(rng.uniform(0, 1, 200))
    X = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    model = svdd_fit(X, 0.1)
    r = np.sqrt(model.r_squared)
    assert 0.8 <= r <= 1.1
    center = model.alphas @ model.support_samples
    oracle = np.quantile(np.linalg.norm(X - center, axis=1), 0.9)
    assert r == pytest.approx(oracle, abs=0.1)


def test_no_slack_contains_all_training_points(rng):
    X = rng.standard_normal((80, 4))
    model = svdd_fit(X, 1.0)
    assert score_samples(model, X).max() <= 1e-6


def test_training_set_predicted_normal_at_c1(rng):
    X = rng.standard_normal((40, 3))
    model = svdd_fit(X, 1.0)
    assert (predict(model, X) == "normal").all()


def _ssvdd_d2(X, C, kernel):
    return ssvdd_fit(X, d=2, C=C, iterations=5, kernel=kernel)


@pytest.mark.parametrize("fit, seed, kernel", [
    pytest.param(fit, seed, KernelSpec(kind), id=f"{name}-{seed}-{kind}")
    for name, fit, kinds in (("svdd", svdd_fit, ("linear", "rbf")),
                             ("esvdd", esvdd_fit, ("linear", "rbf")),
                             ("gesvdd", gesvdd_fit, ("linear", "rbf")),
                             ("ssvdd", _ssvdd_d2, ("linear", "rbf")))
    for seed in range(10) for kind in kinds])
def test_no_training_row_of_a_no_slack_fit_scores_above_zero(fit, seed, kernel):
    # R^2 comes from the scorer's own arithmetic, and a whitened, embedded or
    # projected fit sees the rows its scorer transforms, so not even by rounding
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((int(rng.integers(20, 200)), int(rng.integers(2, 12))))
    assert score_samples(fit(X, 1.0, kernel=kernel), X).max() <= 0.0


@pytest.mark.parametrize("kind", ["linear", "rbf"])
@pytest.mark.parametrize("seed", range(20))
def test_every_training_gram_row_is_the_scorers_row(seed, kind):
    # a fit's gram and a scorer's kernel row run one arithmetic, so row i of
    # the training gram is bit for bit the row the scorer gives X[i] alone
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((int(rng.integers(2, 120)), int(rng.integers(1, 40))))
    kernel = resolve_kernel(KernelSpec(kind), X)
    K = gram_matrix(X, X, kernel)
    for i in range(X.shape[0]):
        assert np.array_equal(K[i], gram_matrix(X[i:i + 1], X, kernel)[0]), i


def test_far_outlier_flagged_by_every_family(rng):
    # bounded-decision variants: balls (plain/whitened/subspace) in linear
    # form, halfspace models via rbf where the decision region is bounded.
    # The outlier rides the top principal direction so the learned subspace
    # cannot be orthogonal to it.
    from canoc import esvdd_fit, geocsvm_fit, gesvdd_fit, ocsvm_fit, ssvdd_fit
    X = rng.standard_normal((60, 3))
    _, _, vt = np.linalg.svd(X, full_matrices=False)
    outlier = 100.0 * vt[:1]  # ~100 sigma out
    models = [
        svdd_fit(X, 0.5),
        svdd_fit(X, 0.5, KernelSpec("rbf")),
        ssvdd_fit(X, d=2, C=0.5, iterations=5),
        esvdd_fit(X, 0.5),
        gesvdd_fit(X, 0.5, k=5),
        ocsvm_fit(X, 0.1, KernelSpec("rbf")),
        geocsvm_fit(X, 0.1, k=5, kernel=KernelSpec("rbf")),
    ]
    for model in models:
        assert predict(model, outlier)[0] == "anomaly"


def test_predict_empty_matrix(rng):
    model = svdd_fit(rng.standard_normal((10, 2)), 1.0)
    assert predict(model, np.empty((0, 2))).tolist() == []


def test_positive_scaling_preserves_linear_labels(rng):
    X = rng.standard_normal((50, 3))
    T = rng.standard_normal((30, 3)) * 1.5
    m1 = svdd_fit(X, 0.2)
    m2 = svdd_fit(3.0 * X, 0.2)
    l1 = predict(m1, T)
    l2 = predict(m2, 3.0 * T)
    assert np.array_equal(l1, l2)


def test_dimension_mismatch_raises(rng):
    model = svdd_fit(rng.standard_normal((10, 3)), 1.0)
    with pytest.raises(ValueError, match="features"):
        score_samples(model, np.zeros((2, 5)))


def test_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        svdd_fit(np.zeros((1, 2)), 1.0)


def test_boundary_tie_classified_normal(rng):
    # score exactly 0 -> target class, per the <= boundary convention
    X = rng.standard_normal((20, 2))
    model = svdd_fit(X, 1.0)
    assert (score_samples(model, X) <= 1e-6).all()
    fake = np.where(np.zeros(3) > 0, "anomaly", "normal")
    assert (fake == "normal").all()


def test_median_heuristic_is_the_median_pairwise_distance():
    # pairwise distances 3, 4 and 5
    X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert median_heuristic(X) == 4.0


def test_median_heuristic_degenerate_inputs_give_one():
    assert median_heuristic(np.array([[2.0, 3.0]])) == 1.0
    assert median_heuristic(np.array([2.0, 3.0])) == 1.0
    assert median_heuristic(np.tile([2.0, 3.0], (5, 1))) == 1.0
    # a NaN distance makes np.median NaN, which is not > 0
    assert median_heuristic(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])) == 1.0


def every_distance_median(X):
    """np.median of all the pairwise distances, the rule as first written."""
    upper = squared_distances(X, X)[np.triu_indices(len(X), k=1)]
    med = float(np.median(np.sqrt(upper)))
    return med if med > 0 else 1.0


@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["normal", "integer", "duplicate"]), st.integers(1, 64),
       st.integers(1, 16), st.floats(0.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_the_blocked_median_is_the_median_of_every_distance(n, dim, seed, rows, block, sample,
                                                           margin):
    # odd and even pair counts; tied distances (small integers) and rows
    # repeated at distance 0; blocks of a few distances, and brackets from a
    # sample of a few pairs, narrow enough to miss
    rng = np.random.default_rng(seed)
    if rows == "integer":
        X = rng.integers(-1, 2, size=(n, dim)).astype(float)
    else:
        X = rng.standard_normal((n, dim))
        if rows == "duplicate":
            X[rng.integers(n, size=n)] = X[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "MEDIAN_BLOCK", block)
        patch.setattr(kernels, "MEDIAN_SAMPLE", sample)
        patch.setattr(kernels, "MEDIAN_MARGIN", margin)
        got = median_heuristic(X)
    assert np.float64(got).tobytes() == np.float64(every_distance_median(X)).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_a_bracket_that_misses_the_median_is_widened_and_the_pass_repeated(seed, monkeypatch):
    X = np.random.default_rng(seed).standard_normal((120, 3))
    passes = []
    upper = kernels._upper_distances

    def spy(X):
        passes.append(len(X))
        return upper(X)

    monkeypatch.setattr(kernels, "_upper_distances", spy)
    monkeypatch.setattr(kernels, "MEDIAN_SAMPLE", 32)
    monkeypatch.setattr(kernels, "MEDIAN_MARGIN", 0.0)  # a bracket of one sampled distance
    assert median_heuristic(X) == every_distance_median(X)
    assert len(passes) > 1


def test_the_median_of_4000_rows_forms_no_n_by_n_array():
    n = 4000
    X = np.random.default_rng(4).standard_normal((n, 12))
    tracemalloc.start()
    try:
        median_heuristic(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 10


def test_resolve_kernel_fills_sigma_only_for_unset_rbf(rng):
    X = rng.standard_normal((20, 3))
    resolved = resolve_kernel(KernelSpec("rbf"), X)
    assert resolved == KernelSpec("rbf", median_heuristic(X))
    for kernel in (KernelSpec("linear"), KernelSpec("rbf", 2.5)):
        assert resolve_kernel(kernel, X) is kernel


def test_kernel_spec_rejects_a_sigma_whose_rbf_denominator_is_not_a_finite_nonzero_double():
    for sigma in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            KernelSpec("rbf", sigma)
    # 2 sigma**2 is 0 or inf, or subnormal, so that its inverse overflows
    for sigma in (1e-300, 1.4e-162, 1e-160, 1e154, 1e200):
        with pytest.raises(ValueError, match=re.escape(f"sigma {sigma} is out of range")):
            KernelSpec("rbf", sigma)
    for sigma in (1e-100, 1e150):
        X = np.eye(2)
        assert np.isfinite(gram_matrix(X, X, KernelSpec("rbf", sigma))).all()
    # 2 sigma**2 = 2e-308 is a normal double, but a squared distance of 2 over it
    # overflows: the exponent goes to its limit, -inf, whose exp is 0
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    assert gram_matrix(X, X, KernelSpec("rbf", 1e-154)).tolist() == np.eye(3).tolist()
