import numpy as np
import pytest

from canoc.models import (DualSolverError, KernelSpec, center_distances_sq,
                          gram_matrix, solve_ocsvm_dual, solve_svdd_dual)


def kkt_check(K, alphas, box, tol=1e-5):
    """Distance-form KKT oracle, computed from scratch."""
    assert abs(alphas.sum() - 1.0) <= 1e-6
    assert alphas.min() >= -1e-12 and alphas.max() <= box + 1e-12
    d2 = center_distances_sq(K, alphas)
    unbounded = (alphas > 1e-8 * box) & (alphas < box * (1 - 1e-8))
    if unbounded.any():
        r2 = d2[unbounded].mean()
        assert np.abs(d2[unbounded] - r2).max() <= tol
    else:
        r2 = d2[alphas > 1e-8 * box].mean()
    interior = alphas <= 1e-8 * box
    if interior.any():
        assert d2[interior].max() <= r2 + tol
    bound = alphas >= box * (1 - 1e-8)
    if bound.any():
        assert d2[bound].min() >= r2 - tol
    return r2


def test_two_symmetric_points():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    K = X @ X.T
    alphas = solve_svdd_dual(K, 1.0)
    assert alphas == pytest.approx([0.5, 0.5], abs=1e-9)
    r2 = kkt_check(K, alphas, 1.0)
    assert np.sqrt(r2) == pytest.approx(1.0, abs=1e-9)  # half the distance


def test_identical_points_give_uniform_alphas():
    X = np.ones((5, 3))
    K = X @ X.T
    alphas = solve_svdd_dual(K, 1.0)
    assert alphas == pytest.approx([0.2] * 5, abs=1e-12)
    assert center_distances_sq(K, alphas).max() <= 1e-12


def test_equilateral_triangle_circumradius():
    side = 2.0
    X = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * np.sqrt(3) / 2]])
    K = X @ X.T
    alphas = solve_svdd_dual(K, 1.0)
    assert alphas == pytest.approx([1 / 3] * 3, abs=1e-7)
    r2 = kkt_check(K, alphas, 1.0, tol=1e-6)
    # hand-computed circumcenter: the centroid; R = side / sqrt(3)
    assert np.sqrt(r2) == pytest.approx(side / np.sqrt(3), abs=1e-6)


def test_infeasible_c_raises():
    K = np.eye(4)
    with pytest.raises(ValueError, match="infeasible"):
        solve_svdd_dual(K, 0.2)  # needs C >= 1/4


@pytest.mark.parametrize("C", [float("nan"), float("inf")])
def test_non_finite_c_raises_naming_c(C):
    with pytest.raises(ValueError, match="C must be finite"):
        solve_svdd_dual(np.eye(4), C)


def test_nonconvergence_carries_residual():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    with pytest.raises(DualSolverError) as err:
        solve_svdd_dual(X @ X.T, 0.2, max_iter=2)
    assert err.value.residual > 0


def random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    X = rng.standard_normal((n, int(rng.integers(2, 6))))
    kernel = KernelSpec("linear") if seed % 2 else KernelSpec("rbf", 1.5)
    K = gram_matrix(X, X, kernel)
    C = float(rng.uniform(1.5 / n, 1.0))
    return K, C, rng


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_satisfy_kkt(seed):
    K, C, _ = random_instance(seed)
    kkt_check(K, solve_svdd_dual(K, C), C)


def random_feasible_point(rng, n, box):
    """A point of {sum(a) = 1, 0 <= a <= box} away from the uniform one."""
    a = rng.dirichlet(np.ones(n))
    while a.max() > box:  # pull towards the uniform point, which is inside
        a = 0.5 * (a + 1.0 / n)
    return a


@pytest.mark.parametrize("seed", range(8))
def test_warm_start_from_random_feasible_point_satisfies_kkt(seed):
    K, C, rng = random_instance(seed)
    a0 = random_feasible_point(rng, K.shape[0], C)
    assert abs(a0.sum() - 1.0) <= 1e-12 and not np.allclose(a0, 1.0 / K.shape[0])
    given = a0.copy()
    kkt_check(K, solve_svdd_dual(K, C, a0=a0), C)
    assert np.array_equal(a0, given)  # the caller's start is not written to


def test_warm_start_from_solution_returns_it_unchanged():
    K, C, _ = random_instance(2)
    solution = solve_svdd_dual(K, C)
    again = solve_svdd_dual(K, C, max_iter=1, a0=solution)
    assert again.tobytes() == solution.tobytes()


@pytest.mark.parametrize("a0", [
    np.full(3, 1 / 3),
    np.array([[0.25, 0.25, 0.25, 0.25]]),
    np.array([-0.1, 0.4, 0.35, 0.35]),
    np.array([0.55, 0.15, 0.15, 0.15]),
    np.array([0.25, 0.25, 0.25, 0.3]),
    np.array([0.25, 0.25, 0.25, 0.25 + 1e-8]),
    np.array([np.nan, 0.25, 0.25, 0.25]),
], ids=["short", "2-d", "negative", "above box", "sum 1.05", "sum 1+1e-8", "nan"])
def test_infeasible_warm_start_raises(a0):
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # box C = 0.5
    with pytest.raises(ValueError, match="a0"):
        solve_svdd_dual(X @ X.T, 0.5, a0=a0)


def test_gram_psd_after_symmetrization(rng):
    X = rng.standard_normal((40, 3))
    for kernel in (KernelSpec("linear"), KernelSpec("rbf", 0.7)):
        K = gram_matrix(X, X, kernel)
        K = 0.5 * (K + K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


# --- OC-SVM dual ------------------------------------------------------------

def test_ocsvm_nu_one_forces_uniform():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 3))
    alphas = solve_ocsvm_dual(X @ X.T, 1.0)
    assert alphas == pytest.approx([1 / 12] * 12, abs=1e-12)


def test_ocsvm_nu_out_of_range():
    K = np.eye(3)
    with pytest.raises(ValueError, match="nu"):
        solve_ocsvm_dual(K, 0.0)
    with pytest.raises(ValueError, match="nu"):
        solve_ocsvm_dual(K, 1.5)


def test_ocsvm_dual_feasibility(rng):
    X = rng.standard_normal((50, 4))
    K = gram_matrix(X, X, KernelSpec("rbf", 2.0))
    for nu in (0.05, 0.3, 0.9):
        alphas = solve_ocsvm_dual(K, nu)
        assert abs(alphas.sum() - 1.0) <= 1e-6
        assert alphas.max() <= 1.0 / (nu * 50) + 1e-12
        assert alphas.min() >= 0.0
