import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canoc import esvdd_fit, geocsvm_fit, gesvdd_fit, graph_laplacian, svdd_fit
from canoc.models import score_samples, whiten
from canoc.models.whiten import inv_sqrt_psd


def rank_order(values):
    return np.argsort(np.argsort(values))


def test_esvdd_large_epsilon_recovers_svdd_ranking(rng):
    X = rng.standard_normal((80, 4))
    T = rng.standard_normal((50, 4)) * 1.5
    plain = svdd_fit(X, 0.5)
    ellipsoid = esvdd_fit(X, 0.5, epsilon=1e8)
    assert np.array_equal(rank_order(score_samples(plain, T)),
                          rank_order(score_samples(ellipsoid, T)))


def test_esvdd_isotropic_data_nearly_preserves_ranking(rng):
    X = rng.standard_normal((150, 3))
    T = rng.standard_normal((60, 3))
    plain = svdd_fit(X, 0.5)
    ellipsoid = esvdd_fit(X, 0.5, epsilon=1e-2)
    r1, r2 = rank_order(score_samples(plain, T)), rank_order(score_samples(ellipsoid, T))
    corr = np.corrcoef(r1, r2)[0, 1]
    assert corr >= 0.99


def test_esvdd_elongated_ellipse_containment(rng):
    # uniform in a filled ellipse with 10:1 aspect ratio
    def sample(n):
        angles = rng.uniform(0, 2 * np.pi, n)
        radii = np.sqrt(rng.uniform(0, 1, n))
        return np.column_stack([10 * radii * np.cos(angles),
                                radii * np.sin(angles)])

    train, held_out = sample(200), sample(200)
    model = esvdd_fit(train, 1.0, epsilon=1e-2)
    inside = (score_samples(model, held_out) <= 0).mean()
    assert inside >= 0.95


def test_esvdd_validates_epsilon(rng):
    with pytest.raises(ValueError, match="epsilon"):
        esvdd_fit(rng.standard_normal((10, 2)), 1.0, epsilon=0.0)


def test_inv_sqrt_psd_inverts():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    S = A @ A.T + 0.5 * np.eye(4)
    W = inv_sqrt_psd(S)
    assert np.abs(W @ S @ W - np.eye(4)).max() <= 1e-10


# --- graph Laplacian ---------------------------------------------------------

def test_laplacian_two_points():
    L = graph_laplacian(np.array([[0.0], [1.0]]), k=1)
    assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_zero_row_sums(rng):
    L = graph_laplacian(rng.standard_normal((20, 3)), k=4)
    assert np.abs(L @ np.ones(20)).max() <= 1e-12
    assert np.abs(L - L.T).max() == 0.0


def test_laplacian_psd(rng):
    L = graph_laplacian(rng.standard_normal((50, 3)), k=6)
    assert np.linalg.eigvalsh(L).min() >= -1e-8


def test_laplacian_k_bounds(rng):
    X = rng.standard_normal((5, 2))
    with pytest.raises(ValueError, match="k="):
        graph_laplacian(X, k=5)
    with pytest.raises(ValueError, match="k="):
        graph_laplacian(X, k=0)


# --- graph-embedded models ----------------------------------------------------

def test_complete_graph_reduces_to_covariance_whitening(rng):
    # k = n-1 makes X'LX = n^2 * population covariance, so the two whiteners
    # agree up to a scalar
    X = rng.standard_normal((30, 3)) @ np.diag([3.0, 1.0, 0.5])
    ge = gesvdd_fit(X, 1.0, k=29, epsilon=1e-10)
    el = esvdd_fit(X, 1.0, epsilon=1e-10)
    M = ge.transforms[0].q.T @ np.linalg.inv(el.transforms[0].q.T)
    scale = np.trace(M) / 3
    assert np.abs(M - scale * np.eye(3)).max() <= 1e-6 * abs(scale)


def test_two_cluster_containment(rng):
    a = rng.normal(0, 0.3, size=(60, 2))
    b = rng.normal(8, 0.3, size=(60, 2))
    train = np.vstack([a, b])
    model = gesvdd_fit(train, 1.0, k=5, epsilon=1e-3)
    test = np.vstack([rng.normal(0, 0.3, size=(40, 2)),
                      rng.normal(8, 0.3, size=(40, 2))])
    assert (score_samples(model, test) <= 0).mean() >= 0.95


def test_neighbor_count_changes_whitener(rng):
    X = np.vstack([rng.normal(0, 1, (25, 3)), rng.normal(6, 1, (25, 3))])
    w_few = gesvdd_fit(X, 1.0, k=3).transforms[0].q.T
    w_all = gesvdd_fit(X, 1.0, k=49).transforms[0].q.T
    assert not np.allclose(w_few, w_all)


def test_geocsvm_trains_and_unpacks(rng):
    X = rng.standard_normal((40, 3))
    model = geocsvm_fit(X, 0.1, k=5)
    (whiten,) = model.transforms
    assert whiten.q.T.shape == (3, 3) and model.params["k_neighbors"] == 5
    assert model.family == "geocsvm" and np.isfinite(model.offset)


def stable_argsort_laplacian(X, k):
    """The kNN rule as first written: a stable sort of each distance row keeps
    its first k, so ties go to the lower index."""
    from canoc.models.kernels import squared_distances
    n = X.shape[0]
    d2 = squared_distances(X, X)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    A = np.zeros((n, n))
    A[np.repeat(np.arange(n), k), neighbors.ravel()] = 1.0
    A = np.maximum(A, A.T)
    return np.diag(A.sum(axis=1)) - A


@pytest.mark.parametrize("block_rows", [1, 2, 3, None])
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_laplacian_keeps_the_neighbours_of_a_stable_sort(block_rows, n, dim, seed, integer_rows):
    # the kNN search runs in blocks of 1, 2, 3 or n rows (None: all n at once)
    rng = np.random.default_rng(seed)
    if integer_rows:  # small integers: many exactly tied distances
        X = rng.integers(-1, 2, size=(n, dim)).astype(float)
    else:
        X = rng.standard_normal((n, dim))
        for _ in range(n // 3):  # duplicate rows tie at distance 0
            X[rng.integers(n)] = X[rng.integers(n)]
    k = int(rng.integers(1, n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(whiten, "KNN_BLOCK", n * (block_rows or n))
        assert np.array_equal(graph_laplacian(X, k), stable_argsort_laplacian(X, k))


def test_a_graph_embedded_fit_on_4000_rows_forms_no_n_by_n_array():
    n = 4000
    X = np.random.default_rng(4).standard_normal((n, 12))
    tracemalloc.start()
    try:
        gesvdd_fit(X, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 10
